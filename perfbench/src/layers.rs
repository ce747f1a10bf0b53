//! Per-layer host timings on fixed inputs, through each layer's public
//! functions. Every figure is the median over [`REPS`] repetitions of a
//! fixed amount of work, so it does not depend on the workload or seed of
//! the run that takes it.

use std::hint::black_box;
use std::time::Instant;

use aapm::cluster::{BudgetTree, RackSpec};
use aapm::governor::{Governor, SampleContext};
use aapm::runtime::{Session, SimulationConfig};
use aapm::spec::{GovernorSpec, REGISTRY};
use aapm_experiments::ExperimentContext;
use aapm_models::training::{
    collect_training_data_from, train_perf_model, train_power_model, TrainingConfig,
};
use aapm_platform::batch::MachineBatch;
use aapm_platform::config::MachineConfig;
use aapm_platform::error::{PlatformError, Result as SimResult};
use aapm_platform::events::HardwareEvent;
use aapm_platform::fleet::{CohortMode, Fleet, UncontrolledFleet};
use aapm_platform::hierarchy::{MemoryHierarchy, PrefetchConfig};
use aapm_platform::machine::Machine;
use aapm_platform::phase::PhaseDescriptor;
use aapm_platform::program::PhaseProgram;
use aapm_platform::pstate::{PStateId, PStateTable};
use aapm_platform::requests::{QueueSample, Request};
use aapm_platform::units::Seconds;
use aapm_platform::workload::WorkloadSource;
use aapm_telemetry::daq::{DaqConfig, PowerDaq};
use aapm_telemetry::metrics::Metrics;
use aapm_telemetry::pmc::PmcDriver;
use aapm_telemetry::sensor::{ThermalSensor, ThermalSensorConfig};
use aapm_telemetry::window::MovingWindow;
use aapm_workloads::characterize::training_set;
use aapm_workloads::footprint::Footprint;
use aapm_workloads::loops::MicroLoop;

use crate::hist::{median, Histogram};
use crate::run::SETUPS;
use crate::workloads::{serve_day, serve_spec};

/// Repetitions per figure; the median counts.
pub const REPS: usize = 5;

/// The 10 ms control interval.
fn dt() -> Seconds {
    Seconds::from_millis(10.0)
}

/// Median over [`REPS`] of `ns / units` for `measure() -> (units, ns)`.
fn per_unit(mut measure: impl FnMut() -> (f64, f64)) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let (units, ns) = measure();
            ns / units
        })
        .collect();
    median(&samples).expect("REPS > 0")
}

fn elapsed_ns(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// A long mixed phase that never finishes within a measurement.
fn fixture() -> PhaseProgram {
    let phase = PhaseDescriptor::builder("layer-fixture")
        .instructions(u64::MAX / 4)
        .core_cpi(0.7)
        .mem_fraction(0.4)
        .l1_mpi(0.03)
        .l2_mpi(0.004)
        .overlap(0.3)
        .build()
        .expect("fixture phase is valid");
    PhaseProgram::from_phase(phase)
}

fn fixture_machine(seed: u64) -> Machine {
    Machine::new(MachineConfig::pentium_m_755(seed), fixture())
}

/// One serve lane's arrivals, one bucket per 10 ms tick.
type TickBuckets = Vec<Vec<Request>>;

/// Each serve lane's machine and arrivals, drawn ahead so generation stays
/// out of the tick timings.
fn arrivals_per_tick(lanes: usize, ticks: usize) -> SimResult<(Vec<Machine>, Vec<TickBuckets>)> {
    let day = serve_day(0)?;
    let mut machines = Vec::new();
    let mut buckets = Vec::new();
    for lane in 0..lanes {
        let mut source = day.reseeded(lane as u64 + 1);
        machines.push(source.machine(MachineConfig::pentium_m_755(lane as u64 + 1)));
        let mut lane_buckets = Vec::with_capacity(ticks);
        for tick in 0..ticks {
            let mut out = Vec::new();
            source.arrivals_into(dt() * tick as f64, dt() * (tick + 1) as f64, &mut out);
            lane_buckets.push(out);
        }
        buckets.push(lane_buckets);
    }
    Ok((machines, buckets))
}

/// Scalar `Machine::tick`, with a DVFS move every 100 ticks.
pub fn machine_tick_ns() -> f64 {
    const TICKS: usize = 20_000;
    per_unit(|| {
        let mut machine = fixture_machine(1);
        let start = Instant::now();
        for i in 0..TICKS {
            if i % 100 == 0 {
                machine
                    .set_pstate(PStateId::new((i / 100) % 8))
                    .expect("p-state valid");
            }
            black_box(machine.tick(dt()));
        }
        (TICKS as f64, elapsed_ns(start))
    })
}

/// Serve-mode `Machine::tick` through the busy part of the diurnal day
/// (arrivals offered before each tick).
///
/// # Errors
///
/// Propagates workload construction errors.
pub fn serve_tick_ns() -> SimResult<f64> {
    const TICKS: usize = 6_000;
    let (machines, buckets) = arrivals_per_tick(1, TICKS)?;
    Ok(per_unit(|| {
        let mut machine = machines[0].clone();
        let start = Instant::now();
        for bucket in &buckets[0] {
            for request in bucket {
                machine.offer_request(*request);
            }
            black_box(machine.tick(dt()));
        }
        (TICKS as f64, elapsed_ns(start))
    }))
}

/// `run_to_completion` on galgel: host ns per simulated second.
pub fn fast_forward_ns_per_sim_s() -> f64 {
    let galgel = aapm_workloads::spec::by_name("galgel").expect("galgel is in the suite");
    per_unit(|| {
        let mut machine = Machine::new(MachineConfig::pentium_m_755(1), galgel.program().clone());
        let start = Instant::now();
        let simulated = machine.run_to_completion().expect("galgel makes progress");
        (simulated.seconds(), elapsed_ns(start))
    })
}

/// `MachineBatch::tick_all` over 32 batch lanes: ns per lane-tick.
pub fn batch_lane_tick_ns() -> f64 {
    const LANES: usize = 32;
    const TICKS: usize = 5_000;
    per_unit(|| {
        let mut batch =
            MachineBatch::new((0..LANES).map(|l| fixture_machine(l as u64 + 1)).collect());
        let start = Instant::now();
        for i in 0..TICKS {
            if i % 100 == 0 {
                for lane in 0..LANES {
                    batch
                        .set_pstate(lane, PStateId::new((i / 100) % 8))
                        .expect("p-state valid");
                }
            }
            batch.tick_all(dt());
        }
        ((LANES * TICKS) as f64, elapsed_ns(start))
    })
}

/// `MachineBatch::tick_all` over 8 serve lanes: ns per lane-tick.
///
/// # Errors
///
/// Propagates workload construction errors.
pub fn batch_serve_lane_tick_ns() -> SimResult<f64> {
    const LANES: usize = 8;
    const TICKS: usize = 2_000;
    let (machines, buckets) = arrivals_per_tick(LANES, TICKS)?;
    Ok(per_unit(|| {
        let mut batch = MachineBatch::new(machines.clone());
        let start = Instant::now();
        for tick in 0..TICKS {
            for (lane, lane_buckets) in buckets.iter().enumerate() {
                for request in &lane_buckets[tick] {
                    batch.offer_request(lane, *request);
                }
            }
            batch.tick_all(dt());
        }
        ((LANES * TICKS) as f64, elapsed_ns(start))
    }))
}

/// `Fleet::run_des` under `UncontrolledFleet`: ns per node cohort step.
pub fn des_node_tick_ns() -> f64 {
    const COHORTS: usize = 10;
    const LANES: usize = 50;
    const HORIZON: u64 = 1_000;
    const CADENCE: u64 = 10;
    per_unit(|| {
        let mut fleet = Fleet::new(dt());
        for cohort in 0..COHORTS {
            let machines = (0..LANES)
                .map(|l| fixture_machine((cohort * LANES + l) as u64 + 1))
                .collect();
            let mode = CohortMode::Governed {
                cadence_ticks: CADENCE,
            };
            fleet
                .add_cohort(machines, mode)
                .expect("non-empty cohort, positive cadence");
        }
        let start = Instant::now();
        fleet
            .run_des(HORIZON, 0, &mut UncontrolledFleet)
            .expect("an uncontrolled fleet of endless programs runs");
        (
            (COHORTS * LANES) as f64 * (HORIZON / CADENCE) as f64,
            elapsed_ns(start),
        )
    })
}

/// `MemoryHierarchy::access` on the characterization path (FMA stream
/// over a DRAM footprint, prefetcher on): ns per access.
///
/// # Errors
///
/// Propagates hierarchy construction errors.
pub fn cache_access_ns() -> SimResult<f64> {
    let base = MemoryHierarchy::pentium_m_755()?.with_prefetcher(PrefetchConfig::pentium_m());
    Ok(per_unit(|| {
        let mut hierarchy = base.clone();
        let mut accesses = 0u64;
        let start = Instant::now();
        MicroLoop::Fma.for_each_address(Footprint::Dram, 0, |addr| {
            black_box(hierarchy.access(addr));
            accesses += 1;
        });
        (accesses as f64, elapsed_ns(start))
    }))
}

/// Host ns a telemetry read adds to a machine tick: the median over
/// [`REPS`] of (tick + read) minus (tick alone), per interval.
fn read_over_tick(mut make_reader: impl FnMut() -> Box<dyn FnMut(&Machine)>) -> f64 {
    const TICKS: usize = 10_000;
    let diffs: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut bare = fixture_machine(3);
            let start = Instant::now();
            for _ in 0..TICKS {
                black_box(bare.tick(dt()));
            }
            let bare_ns = elapsed_ns(start);
            let mut machine = fixture_machine(3);
            let mut read = make_reader();
            let start = Instant::now();
            for _ in 0..TICKS {
                black_box(machine.tick(dt()));
                read(&machine);
            }
            (elapsed_ns(start) - bare_ns) / TICKS as f64
        })
        .collect();
    median(&diffs).expect("REPS > 0")
}

/// `PowerDaq::sample`.
pub fn daq_sample_ns() -> f64 {
    read_over_tick(|| {
        let mut daq = PowerDaq::new(DaqConfig::default(), 7);
        Box::new(move |m| {
            black_box(daq.sample(m));
        })
    })
}

/// `PmcDriver::sample` with PS's two events (no multiplexing).
pub fn pmc_sample_ns() -> f64 {
    read_over_tick(|| {
        let mut pmc = PmcDriver::new(vec![
            HardwareEvent::InstructionsRetired,
            HardwareEvent::DcuMissOutstanding,
        ]);
        Box::new(move |m| {
            black_box(pmc.sample(m));
        })
    })
}

/// `ThermalSensor::read`.
pub fn sensor_read_ns() -> f64 {
    read_over_tick(|| {
        let mut sensor = ThermalSensor::new(ThermalSensorConfig::default(), 7);
        Box::new(move |m| {
            black_box(sensor.read(m));
        })
    })
}

/// `MovingWindow` push + `percentile(99)` on a full window of `capacity`.
pub fn window_p99_ns(capacity: usize) -> f64 {
    const OPS: usize = 5_000;
    // A deterministic heavy-tailed sojourn-like sequence.
    let values: Vec<f64> = (0..OPS + capacity)
        .map(|i| 0.002 + 0.001 * ((i * 7919) % 97) as f64 + if i % 53 == 0 { 0.08 } else { 0.0 })
        .collect();
    per_unit(|| {
        let mut window = MovingWindow::new(capacity);
        for &v in &values[..capacity] {
            window.push(v);
        }
        let start = Instant::now();
        for &v in &values[capacity..] {
            window.push(v);
            black_box(window.percentile(99.0));
        }
        (OPS as f64, elapsed_ns(start))
    })
}

fn serve_session_ns(ctx: &ExperimentContext, metrics: &Metrics) -> SimResult<f64> {
    const STEPS: usize = 1_000;
    let models = ctx.spec_models();
    let sim = SimulationConfig {
        seed: 5,
        max_samples: STEPS,
        ..SimulationConfig::default()
    };
    let mut session = Session::builder(MachineConfig::pentium_m_755(5), serve_day(5)?)
        .config(sim)
        .governor_spec(&serve_spec(), &models)?
        .observer(metrics)
        .build()?;
    let start = Instant::now();
    while session.step()?.is_running() {}
    Ok(elapsed_ns(start) / STEPS as f64)
}

/// `Session::step` with an enabled `Metrics` observer minus without, per
/// interval, on a serve session (so the queue gauges and the sojourn
/// histogram record too). Host noise drifts slower than one pair of
/// sessions, so the median of adjacent on/off pair differences cancels
/// most of it; the side that runs first alternates.
///
/// # Errors
///
/// Propagates session errors.
pub fn metrics_step_overhead_ns(ctx: &ExperimentContext) -> SimResult<f64> {
    const PAIRS: usize = 21;
    let mut diffs = Vec::with_capacity(PAIRS);
    for pair in 0..PAIRS {
        let mut order = [Metrics::enabled(), Metrics::disabled()];
        if pair % 2 == 1 {
            order.reverse();
        }
        let first = serve_session_ns(ctx, &order[0])?;
        let second = serve_session_ns(ctx, &order[1])?;
        diffs.push(if pair % 2 == 0 {
            first - second
        } else {
            second - first
        });
    }
    Ok(median(&diffs).expect("PAIRS > 0"))
}

/// The spec each registry kind is timed under: PM-family limits at the
/// batch workload's 14.5 W, floors at 0.8, the serve SLO, and wrapper
/// kinds around `pm`.
///
/// # Errors
///
/// Returns an error naming a registry kind this benchmark does not know,
/// so a new kind cannot silently go untimed.
pub fn registry_spec(kind: &str) -> SimResult<GovernorSpec> {
    let pm = || Box::new(GovernorSpec::Pm { limit_w: 14.5 });
    Ok(match kind {
        "unconstrained" => GovernorSpec::Unconstrained,
        "static-clock" => GovernorSpec::StaticClock { pstate: 3 },
        "dbs" => GovernorSpec::Dbs {
            target_utilization: 0.8,
        },
        "pm" => GovernorSpec::Pm { limit_w: 14.5 },
        "ps" => GovernorSpec::Ps { floor: 0.8 },
        "feedback-pm" => GovernorSpec::FeedbackPm { limit_w: 14.5 },
        "combined-pm" => GovernorSpec::CombinedPm { limit_w: 14.5 },
        "phase-pm" => GovernorSpec::PhasePm { limit_w: 14.5 },
        "throttle-save" => GovernorSpec::ThrottleSave { floor: 0.8 },
        "slo-save" => serve_spec(),
        "watchdog" => GovernorSpec::Watchdog { inner: pm() },
        "thermal-guard" => GovernorSpec::ThermalGuard { inner: pm() },
        "adaptive" => GovernorSpec::Adaptive {
            forgetting: 0.99,
            window: 50,
            counters: 1,
            inner: pm(),
        },
        other => {
            return Err(PlatformError::InvalidConfig {
                parameter: "registry kind",
                reason: format!("perfbench has no timing spec for governor kind '{other}'"),
            })
        }
    })
}

/// Realistic serve queue samples: the diurnal day's [`QUEUE_SAMPLES`]
/// intervals from the start of the burst, each with the sojourns it
/// completed.
fn burst_queue_samples() -> SimResult<Vec<QueueSample>> {
    let mut day = serve_day(0)?;
    let mut machine = day.machine(MachineConfig::pentium_m_755(0));
    let mut arrivals = Vec::new();
    let mut samples = Vec::with_capacity(QUEUE_SAMPLES);
    let mut tick = 0usize;
    while samples.len() < QUEUE_SAMPLES {
        arrivals.clear();
        day.arrivals_into(dt() * tick as f64, dt() * (tick + 1) as f64, &mut arrivals);
        for request in arrivals.drain(..) {
            machine.offer_request(request);
        }
        machine.tick(dt());
        let sample = machine
            .take_queue_sample()
            .expect("serve machines sample their queue");
        if dt().seconds() * tick as f64 >= aapm_experiments::serve::BURST_START_S {
            samples.push(sample);
        }
        tick += 1;
    }
    Ok(samples)
}

const QUEUE_SAMPLES: usize = 512;

/// `decide` (+ `throttle_decision`) ns for every `REGISTRY` kind on a
/// fixed `SampleContext`, as `(kind, ns)`.
///
/// # Errors
///
/// Propagates spec and workload construction errors.
pub fn governor_decide_ns(ctx: &ExperimentContext) -> SimResult<Vec<(&'static str, f64)>> {
    const CALLS: usize = 5_000;
    let models = ctx.spec_models();
    let table = PStateTable::pentium_m_755();
    let queues = burst_queue_samples()?;
    let mut out = Vec::new();
    for entry in REGISTRY {
        let spec = registry_spec(entry.kind)?;
        let probe: Box<dyn Governor> = spec.build(&models)?;
        // A warmed machine and telemetry chain give the fixed sample.
        let mut machine = fixture_machine(11);
        let mut daq = PowerDaq::new(DaqConfig::default(), 11);
        let mut pmc = PmcDriver::new(probe.events());
        let mut sensor = ThermalSensor::new(ThermalSensorConfig::default(), 11);
        for _ in 0..50 {
            machine.tick(dt());
            pmc.sample(&machine);
        }
        machine.tick(dt());
        let counters = pmc.sample(&machine);
        let power = daq.sample(&machine);
        let temperature = sensor.read(&machine);
        // Only the queue-driven kind sees queue samples, one per call.
        let serve = entry.kind == "slo-save";
        let current = machine.pstate();
        let sample = |call: usize| SampleContext {
            counters: &counters,
            power: Some(&power),
            temperature: Some(temperature),
            current,
            table: &table,
            queue: serve.then(|| &queues[call % QUEUE_SAMPLES]),
        };
        let ns = per_unit(|| {
            let mut governor = spec.build(&models).expect("the spec built the probe");
            let start = Instant::now();
            for call in 0..CALLS {
                let ctx = sample(call);
                black_box(governor.decide(black_box(&ctx)));
                black_box(governor.throttle_decision(&ctx));
            }
            (CALLS as f64, elapsed_ns(start))
        });
        out.push((entry.kind, ns));
    }
    Ok(out)
}

/// `BudgetTree::reallocate` on `racks` under `budget_w`, alternating two
/// fixed demand vectors so no call is a repeat of the last.
///
/// # Errors
///
/// Propagates tree construction errors.
pub fn reallocate_ns(budget_w: f64, racks: &[RackSpec]) -> SimResult<f64> {
    const CALLS: usize = 2_000;
    let mut tree = BudgetTree::new(budget_w, racks)?;
    let nodes = tree.node_count();
    let demands: [Vec<f64>; 2] = [
        (0..nodes).map(|i| 6.0 + ((i * 7) % 19) as f64).collect(),
        (0..nodes).map(|i| 24.0 - ((i * 5) % 17) as f64).collect(),
    ];
    Ok(per_unit(|| {
        let start = Instant::now();
        for call in 0..CALLS {
            tree.reallocate(black_box(&demands[call % 2]));
        }
        (CALLS as f64, elapsed_ns(start))
    }))
}

/// `RequestWorkload::arrivals_into` over one diurnal day in 10 ms
/// windows: ns per request generated.
///
/// # Errors
///
/// Propagates workload construction errors.
pub fn arrival_ns() -> SimResult<f64> {
    let day = serve_day(0)?;
    let windows = aapm_experiments::serve::MAX_SAMPLES;
    Ok(per_unit(|| {
        let mut source = day.clone();
        let mut out = Vec::new();
        let mut generated = 0usize;
        let start = Instant::now();
        for w in 0..windows {
            out.clear();
            source.arrivals_into(dt() * w as f64, dt() * (w + 1) as f64, &mut out);
            generated += out.len();
        }
        (generated as f64, elapsed_ns(start))
    }))
}

/// Median seconds of the three set-up stages (characterize the training
/// loops, collect training samples, fit the models) over [`SETUPS`]
/// repetitions.
///
/// # Errors
///
/// Propagates training errors.
pub fn setup_stages_s() -> SimResult<[f64; 3]> {
    let table = PStateTable::pentium_m_755();
    let mut stages: [Vec<f64>; 3] = Default::default();
    for _ in 0..SETUPS {
        let start = Instant::now();
        let characterized = training_set()?;
        stages[0].push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let data = collect_training_data_from(&TrainingConfig::default(), &table, &characterized)?;
        stages[1].push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        black_box(train_power_model(&data)?);
        black_box(train_perf_model(&data));
        stages[2].push(start.elapsed().as_secs_f64());
    }
    Ok(stages.map(|s| median(&s).expect("at least one repetition")))
}

/// What a clocked pass spends on its own clock per control interval: one
/// [`Histogram::lap`] (a clock read plus a bucket update). `step_us_*`
/// include it; `sim_per_wall` does not.
pub fn interval_clock_ns() -> f64 {
    const LAPS: usize = 100_000;
    per_unit(|| {
        let mut hist = Histogram::default();
        let mut last = Instant::now();
        let start = Instant::now();
        for _ in 0..LAPS {
            hist.lap(&mut last);
        }
        black_box(&hist);
        (LAPS as f64, elapsed_ns(start))
    })
}
