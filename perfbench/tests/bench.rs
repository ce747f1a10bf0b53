//! The benchmark's own tests: its output checks fire on broken inputs, its
//! printed names match `BENCHMARK.json`, and its seeds behave.

use std::process::Command;

use aapm::json::{self, Json};
use aapm_experiments::serve::ServeFeeder;
use aapm_experiments::ExperimentContext;
use aapm_perfbench::hist::Histogram;
use aapm_perfbench::report::{per_layer, END_TO_END};
use aapm_perfbench::workloads::{
    batch_pass, fleet_pass, fleet_pass_with, serve_pass, standard_controller, FleetNodeControl,
    SimOutcome, Workload,
};
use aapm_platform::error::{PlatformError, Result as SimResult};
use aapm_platform::fleet::{CohortId, Fleet, FleetController};
use aapm_platform::phase::PhaseDescriptor;
use aapm_platform::program::PhaseProgram;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn ctx() -> ExperimentContext {
    ExperimentContext::train().expect("training succeeds")
}

/// Runs the built benchmark binary and returns its parsed result line.
fn run_binary(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_aapm-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0.05",
            "--trace",
            trace,
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = stdout.lines().last().expect("a result line");
    // The workspace's JSON subset has no booleans: require and drop the flag.
    let line = line.replacen("\"correct\": true, ", "", 1);
    assert!(!line.contains("\"correct\""), "result not correct: {line}");
    json::parse(&line).expect("result line is JSON")
}

#[test]
fn catalogue_matches_benchmark_json() {
    let spec = benchmark_json();
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("workload name")
                .to_owned()
        })
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(workloads, ours);
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.into(), u.into()))
        .collect();
    assert_eq!(names_and_units(&spec, "end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.into()))
        .collect();
    assert_eq!(names_and_units(&spec, "per_layer"), layers);
}

#[test]
fn printed_names_match_benchmark_json() {
    let spec = benchmark_json();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let result = run_binary("fleet-mixed", trace);
        let printed: Vec<(String, String)> = result
            .get("metrics")
            .and_then(Json::as_object)
            .expect("metrics object")
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .expect("unit")
                        .to_owned(),
                )
            })
            .collect();
        assert_eq!(printed, names_and_units(&spec, key), "trace {trace}");
    }
}

#[test]
fn unknown_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_aapm-perfbench"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}

fn bits(outcome: &SimOutcome) -> Vec<u64> {
    outcome.fields().iter().map(|(_, v)| v.to_bits()).collect()
}

#[test]
fn a_seed_repeats_bit_for_bit_and_another_seed_differs() {
    let ctx = ctx();
    let programs = aapm_workloads::spec::suite_programs().expect("suite");
    let mut clock = Histogram::default();
    let runs: Vec<[SimOutcome; 3]> = vec![
        [7, 7, 8].map(|seed| {
            serve_pass(&ctx, seed, Some(&mut clock), None)
                .expect("serve pass")
                .sim
        }),
        [7, 7, 8].map(|seed| {
            batch_pass(&ctx, &programs, seed, Some(&mut clock), None)
                .expect("batch pass")
                .sim
        }),
        [7, 7, 8].map(|seed| {
            fleet_pass(&ctx, seed, Some(&mut clock), None)
                .expect("fleet pass")
                .sim
        }),
    ];
    for (workload, [a, again, other]) in Workload::ALL.iter().zip(runs) {
        assert_eq!(
            bits(&a),
            bits(&again),
            "{}: same seed must repeat",
            workload.name()
        );
        assert_ne!(
            a.energy_j.to_bits(),
            other.energy_j.to_bits(),
            "{}: seed must matter",
            workload.name()
        );
    }
}

#[test]
fn a_clocked_pass_times_every_interval() {
    let ctx = ctx();
    let programs = aapm_workloads::spec::suite_programs().expect("suite");
    let mut clock = Histogram::default();
    let serve = serve_pass(&ctx, 3, Some(&mut clock), None).expect("serve pass");
    assert_eq!(clock.len(), serve.sim.intervals);
    let mut clock = Histogram::default();
    let batch = batch_pass(&ctx, &programs, 3, Some(&mut clock), None).expect("batch pass");
    assert_eq!(clock.len(), batch.sim.intervals);
    let unclocked = batch_pass(&ctx, &programs, 3, None, None).expect("batch pass");
    assert_eq!(bits(&unclocked.sim), bits(&batch.sim));
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let ctx = ctx();
    let mut clock = Histogram::default();
    let spans = std::rc::Rc::default();
    let plain = serve_pass(&ctx, 4, Some(&mut clock), None).expect("serve pass");
    let traced = serve_pass(&ctx, 4, Some(&mut clock), Some(&spans)).expect("traced serve pass");
    assert_eq!(bits(&plain.sim), bits(&traced.sim));
    assert_eq!(spans.borrow().decide_calls, plain.sim.intervals);
    let spans = std::rc::Rc::default();
    let plain = fleet_pass(&ctx, 4, Some(&mut clock), None).expect("fleet pass");
    let traced = fleet_pass(&ctx, 4, Some(&mut clock), Some(&spans)).expect("traced fleet pass");
    assert_eq!(bits(&plain.sim), bits(&traced.sim));
    assert!(spans.borrow().serve_cohort_ns > 0 && spans.borrow().batch_cohort_ns > 0);
}

/// Wraps the standard controller and misreports it in one chosen way.
struct Broken {
    inner: ServeFeeder,
    fault: Fault,
    caps: Vec<f64>,
}

#[derive(Clone, Copy, PartialEq)]
enum Fault {
    /// Reports caps a hair above what the tree granted.
    Overshoot,
    /// Claims one more request offered than it queued.
    LostRequest,
    /// Fails the first cohort step.
    Error,
}

impl FleetController for Broken {
    fn cohort_stepped(&mut self, fleet: &mut Fleet, cohort: CohortId, now: u64) -> SimResult<()> {
        if self.fault == Fault::Error {
            return Err(PlatformError::InvalidConfig {
                parameter: "test",
                reason: "broken".into(),
            });
        }
        self.inner.cohort_stepped(fleet, cohort, now)
    }

    fn governor_tick(&mut self, fleet: &mut Fleet, now: u64) -> SimResult<()> {
        self.inner.governor_tick(fleet, now)?;
        self.caps = self.inner.inner().caps_w().to_vec();
        if self.fault == Fault::Overshoot {
            self.caps[0] += 1e-9;
        }
        Ok(())
    }
}

impl FleetNodeControl for Broken {
    fn caps_w(&self) -> &[f64] {
        &self.caps
    }

    fn feed(&mut self, fleet: &mut Fleet, upto_ticks: u64) {
        self.inner.feed(fleet, upto_ticks);
    }

    fn offered(&self) -> u64 {
        self.inner.offered() + u64::from(self.fault == Fault::LostRequest)
    }

    fn cap_violation_fraction(&self) -> f64 {
        FleetNodeControl::cap_violation_fraction(&self.inner)
    }

    fn metered_windows(&self) -> u64 {
        self.inner.metered_windows()
    }

    fn reallocations(&self) -> u64 {
        FleetNodeControl::reallocations(&self.inner)
    }
}

fn broken_fleet_pass(ctx: &ExperimentContext, fault: Fault) -> SimResult<Vec<String>> {
    let mut clock = Histogram::default();
    fleet_pass_with(5, Some(&mut clock), None, |racks, budget, streams| {
        let inner = standard_controller(ctx, racks, budget, streams)?;
        Ok(Broken {
            caps: inner.inner().caps_w().to_vec(),
            inner,
            fault,
        })
    })
    .map(|pass| pass.failures)
}

#[test]
fn fleet_checks_fire_on_a_broken_controller() {
    let ctx = ctx();
    let overshoot = broken_fleet_pass(&ctx, Fault::Overshoot).expect("runs");
    assert!(
        !overshoot.is_empty() && overshoot.iter().all(|f| f.contains("above the")),
        "{overshoot:?}"
    );
    let lost = broken_fleet_pass(&ctx, Fault::LostRequest).expect("runs");
    assert_eq!(lost.len(), 1, "{lost:?}");
    assert!(lost[0].contains("offered"), "{lost:?}");
    assert!(
        broken_fleet_pass(&ctx, Fault::Error).is_err(),
        "a run_des error surfaces"
    );
    let mut clock = Histogram::default();
    let good = fleet_pass(&ctx, 5, Some(&mut clock), None).expect("runs");
    assert!(good.failures.is_empty(), "{:?}", good.failures);
}

#[test]
fn an_unfinished_batch_run_fails_its_check() {
    let ctx = ctx();
    let endless = PhaseDescriptor::builder("endless")
        .instructions(u64::MAX / 4)
        .build()
        .expect("valid phase");
    let programs = vec![("endless".to_owned(), PhaseProgram::from_phase(endless))];
    let mut clock = Histogram::default();
    let pass = batch_pass(&ctx, &programs, 1, Some(&mut clock), None).expect("runs");
    assert_eq!(pass.failures.len(), 2, "{:?}", pass.failures);
    assert!(pass.failures.iter().all(|f| f.contains("did not complete")));
}
