//! The three benchmark workloads, one pass at a time, through the public
//! APIs only (`Session::builder`/`step` and `Fleet::run_des`).
//!
//! A pass returns its simulated outcome (deterministic: a pure function of
//! the seed). Given a [`Histogram`], it also records host time per control
//! interval into it. With a [`SpanSink`] it runs under the timing
//! decorators of [`crate::trace`] instead.

use std::time::Instant;

use aapm::cluster::{BudgetTree, ClusterGovernor, FleetPmController, NodeSpec, RackSpec};
use aapm::runtime::{Session, SimulationConfig};
use aapm::slo_save::SloSave;
use aapm::spec::GovernorSpec;
use aapm_experiments::runner::sim_seed;
use aapm_experiments::serve::{self as serve_exp, ServeFeeder};
use aapm_experiments::ExperimentContext;
use aapm_platform::config::MachineConfig;
use aapm_platform::error::Result as SimResult;
use aapm_platform::events::HardwareEvent;
use aapm_platform::fleet::{CohortId, CohortMode, Fleet, FleetController};
use aapm_platform::machine::Machine;
use aapm_platform::phase::PhaseDescriptor;
use aapm_platform::program::PhaseProgram;
use aapm_platform::units::{Seconds, Watts};
use aapm_platform::workload::WorkloadSource;
use aapm_workloads::requests::RequestWorkload;

use crate::checks;
use crate::hist::Histogram;
use crate::trace::{since, SpanSink, TimedGovernor, TimedSource};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One open-loop `Session` over the serve experiment's diurnal day
    /// under `slo-save{slo_ms: 60}`.
    ServeDiurnal,
    /// The 26 SPEC-like programs to completion under `pm{14.5}`, then
    /// under `ps{0.8}`, each a fresh closed-loop `Session`.
    BatchSpec,
    /// One `Fleet::run_des` day: a serve rack beside a compute rack and a
    /// memory-bound rack under a hierarchical budget tree.
    FleetMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ServeDiurnal,
        Workload::BatchSpec,
        Workload::FleetMixed,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeDiurnal => "serve-diurnal",
            Workload::BatchSpec => "batch-spec",
            Workload::FleetMixed => "fleet-mixed",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The deterministic, simulated outcome of one pass. A change that only
/// speeds up the simulator must leave every field bit-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimOutcome {
    /// Simulated node-seconds the pass covers (the `sim_per_wall` numerator).
    pub node_seconds: f64,
    /// Control intervals the pass ran (node intervals for the fleet).
    pub intervals: u64,
    /// True energy of every node, joules.
    pub energy_j: f64,
    /// Jobs finished: requests served, or batch program runs completed.
    pub jobs: u64,
    /// Energy per finished job, millijoules (serve: the serving nodes' energy).
    pub energy_per_job_mj: f64,
    /// Mean completion-minus-arrival time of finished jobs, milliseconds.
    pub sojourn_mean_ms: f64,
    /// Minutes the governing constraint was violated: the p99 SLO meter
    /// (serve) or 100 ms windows over the power cap (batch PM, fleet).
    pub violation_min: f64,
    /// Simulated seconds until the last job finished (batch: summed run
    /// times; serve and fleet: the horizon).
    pub sim_runtime_s: f64,
    /// Billions of instructions retired.
    pub ginstr_retired: f64,
    /// P-state transitions performed.
    pub transitions: u64,
    /// Budget-tree reallocations (fleet only).
    pub reallocations: u64,
}

impl SimOutcome {
    /// The outcome's numbers as `(name, value)` pairs, for the finiteness
    /// and repeatability checks.
    pub fn fields(&self) -> [(&'static str, f64); 11] {
        [
            ("node_seconds", self.node_seconds),
            ("intervals", self.intervals as f64),
            ("energy_j", self.energy_j),
            ("jobs", self.jobs as f64),
            ("energy_per_job_mj", self.energy_per_job_mj),
            ("sojourn_mean_ms", self.sojourn_mean_ms),
            ("violation_min", self.violation_min),
            ("sim_runtime_s", self.sim_runtime_s),
            ("ginstr_retired", self.ginstr_retired),
            ("transitions", self.transitions as f64),
            ("reallocations", self.reallocations as f64),
        ]
    }
}

/// What a pass produced: its outcome and the output checks it failed.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// The simulated outcome.
    pub sim: SimOutcome,
    /// One line per failed output check (empty = the pass is correct).
    pub failures: Vec<String>,
}

/// Mixes `seed` and `salt` into a well-spread seed (the splitmix64
/// finaliser), so related inputs — consecutive input indices, lanes of
/// one pass — never share or overlap a random stream.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const NODE_SALT: u64 = 1 << 32;
const LANE_SALT: u64 = 2 << 32;

/// The serve day's p99 SLO target: `SLO_MS × SLO_GUARDBAND` = 60 ms.
pub const SERVE_SLO_MS: f64 = serve_exp::SLO_MS * serve_exp::SLO_GUARDBAND;

/// The serve day's governor spec, `slo-save{slo_ms: 60}` (default
/// 256-sojourn window).
pub fn serve_spec() -> GovernorSpec {
    GovernorSpec::SloSave {
        slo_ms: SERVE_SLO_MS,
    }
}

/// The batch arms: PM at the serve experiment's 14.5 W static limit, then
/// PS at the paper's 80 % floor.
fn batch_specs() -> [GovernorSpec; 2] {
    [
        GovernorSpec::Pm {
            limit_w: BATCH_LIMIT_W,
        },
        GovernorSpec::Ps { floor: 0.8 },
    ]
}

const BATCH_LIMIT_W: f64 = 14.5;

/// The serve experiment's diurnal day, drawn from `seed`.
pub fn serve_day(seed: u64) -> SimResult<RequestWorkload> {
    let mut b = RequestWorkload::builder("front-end");
    b.seed(seed)
        .day(Seconds::new(serve_exp::DAY_S))
        .rates(serve_exp::BASE_RPS, serve_exp::PEAK_RPS)
        .burst(
            Seconds::new(serve_exp::BURST_START_S),
            Seconds::new(serve_exp::BURST_END_S),
            serve_exp::BURST_MULTIPLIER,
        );
    b.build()
}

fn machine_config(ctx: &ExperimentContext, seed: u64) -> SimResult<MachineConfig> {
    let mut b = MachineConfig::builder();
    b.pstates(ctx.table().clone()).seed(seed);
    b.build()
}

/// Steps `session` to the end; with a `clock`, times every interval into
/// it.
fn drive(session: &mut Session<'_>, clock: Option<&mut Histogram>) -> SimResult<u64> {
    let mut steps = 0;
    let Some(clock) = clock else {
        loop {
            steps += 1;
            if session.step()?.is_finished() {
                return Ok(steps);
            }
        }
    };
    let mut last = Instant::now();
    loop {
        let status = session.step()?;
        clock.lap(&mut last);
        steps += 1;
        if status.is_finished() {
            return Ok(steps);
        }
    }
}

/// Steps `session` to the end, adding its time and intervals to the traced
/// spans.
fn drive_traced(session: &mut Session<'_>, spans: &SpanSink) -> SimResult<u64> {
    let start = Instant::now();
    let steps = drive(session, None)?;
    let mut s = spans.borrow_mut();
    s.step_ns += since(start);
    s.intervals += steps;
    Ok(steps)
}

/// One serve-diurnal pass.
///
/// # Errors
///
/// Propagates a `Session` error.
pub fn serve_pass(
    ctx: &ExperimentContext,
    seed: u64,
    clock: Option<&mut Histogram>,
    spans: Option<&SpanSink>,
) -> SimResult<Pass> {
    // What `serve_spec().build(..)` builds, kept concrete so the pass can
    // read its violation meter afterwards.
    let mut slo = SloSave::new(Seconds::from_millis(SERVE_SLO_MS))?;
    let sim = SimulationConfig {
        seed: sim_seed(seed),
        max_samples: serve_exp::MAX_SAMPLES,
        ..SimulationConfig::default()
    };
    let machine = machine_config(ctx, seed)?;
    let day = serve_day(seed)?;
    let report = match spans {
        None => {
            let mut session = Session::builder(machine, day)
                .config(sim)
                .governor(&mut slo)
                .build()?;
            drive(&mut session, clock)?;
            session.finish().0
        }
        Some(spans) => {
            let mut timed = TimedGovernor::new(&mut slo, spans.clone());
            let source = TimedSource::new(day, spans.clone());
            let mut session = Session::builder(machine, source)
                .config(sim)
                .governor(&mut timed)
                .build()?;
            drive_traced(&mut session, spans)?;
            session.finish().0
        }
    };
    let mut failures = Vec::new();
    let Some(requests) = report.requests else {
        return Ok(Pass {
            failures: vec!["serve run reported no request accounting".into()],
            ..Pass::default()
        });
    };
    checks::queue_conserved(
        "serve node",
        requests.arrived,
        requests.completed,
        requests.pending,
        &mut failures,
    );
    if let Some(spans) = spans {
        spans.borrow_mut().completed += requests.completed;
        spans.borrow_mut().transitions += report.transitions;
    }
    let sim = SimOutcome {
        node_seconds: report.execution_time.seconds(),
        intervals: report.trace.len() as u64,
        energy_j: report.true_energy.joules(),
        jobs: requests.completed,
        energy_per_job_mj: requests.energy_per_request.joules() * 1e3,
        sojourn_mean_ms: requests.mean_sojourn.seconds() * 1e3,
        violation_min: slo.violation_minutes(),
        sim_runtime_s: report.execution_time.seconds(),
        ginstr_retired: 0.0,
        transitions: report.transitions,
        reallocations: 0,
    };
    Ok(Pass { sim, failures })
}

/// One batch-spec pass.
///
/// # Errors
///
/// Propagates a `Session` error.
pub fn batch_pass(
    ctx: &ExperimentContext,
    programs: &[(String, PhaseProgram)],
    seed: u64,
    mut clock: Option<&mut Histogram>,
    spans: Option<&SpanSink>,
) -> SimResult<Pass> {
    let models = ctx.spec_models();
    let limit = Watts::new(BATCH_LIMIT_W);
    let mut out = SimOutcome::default();
    let mut failures = Vec::new();
    for spec in batch_specs() {
        for (name, program) in programs {
            let mut governor = spec.build(&models)?;
            let sim = SimulationConfig {
                seed: sim_seed(seed),
                ..SimulationConfig::default()
            };
            let machine = machine_config(ctx, seed)?;
            let report = match spans {
                None => {
                    let mut session = Session::builder(machine, program.clone())
                        .config(sim)
                        .governor(governor.as_mut())
                        .build()?;
                    drive(&mut session, clock.as_deref_mut())?;
                    session.finish().0
                }
                Some(spans) => {
                    let mut timed = TimedGovernor::new(governor.as_mut(), spans.clone());
                    let mut session = Session::builder(machine, program.clone())
                        .config(sim)
                        .governor(&mut timed)
                        .build()?;
                    drive_traced(&mut session, spans)?;
                    session.finish().0
                }
            };
            if !report.completed {
                failures.push(format!("{name} under {} did not complete", spec.kind()));
            }
            if let Some(spans) = spans {
                spans.borrow_mut().transitions += report.transitions;
            }
            let runtime = report.execution_time.seconds();
            out.node_seconds += runtime;
            out.intervals += report.trace.len() as u64;
            out.energy_j += report.true_energy.joules();
            out.jobs += 1;
            out.sim_runtime_s += runtime;
            out.ginstr_retired += program.total_instructions() as f64 / 1e9;
            out.transitions += report.transitions;
            if matches!(spec, GovernorSpec::Pm { .. }) {
                // 100 ms moving windows (10 samples), weighted by run length.
                let windows = report.trace.len().saturating_sub(9) as f64;
                let violating = report.violation_fraction(limit, 10) * windows;
                out.violation_min += violating * 0.010 / 60.0;
            }
        }
    }
    out.energy_per_job_mj = out.energy_j / out.jobs as f64 * 1e3;
    // A batch job arrives at 0 and completes when its run does.
    out.sojourn_mean_ms = out.sim_runtime_s / out.jobs as f64 * 1e3;
    Ok(Pass { sim: out, failures })
}

/// Serve lanes in the fleet-mixed serve rack.
const FLEET_SERVE_LANES: usize = 8;
/// Lanes in each of the compute and memory-bound batch racks.
const FLEET_BATCH_LANES: usize = 256;
/// Datacenter budget per node, watts.
const FLEET_W_PER_NODE: f64 = 10.0;
/// Rack ceiling per node, watts (the fleet experiment's 120 W per 8 nodes).
const FLEET_RACK_W_PER_NODE: f64 = 15.0;
/// Horizon in 10 ms ticks: the serve fleet stage's 20 s day.
const FLEET_HORIZON_TICKS: u64 = serve_exp::FLEET_HORIZON_TICKS;
const FLEET_DAY_S: f64 = 20.0;
const FLEET_SPIKE: (f64, f64, f64) = (8.0, 12.0, 3.0);

/// What the fleet pass needs from its controller beyond [`FleetController`].
pub trait FleetNodeControl: FleetController {
    /// Current per-node caps, in fleet node order.
    fn caps_w(&self) -> &[f64];
    /// Queues arrivals up to `upto_ticks` onto the serve rack.
    fn feed(&mut self, fleet: &mut Fleet, upto_ticks: u64);
    /// Requests offered so far.
    fn offered(&self) -> u64;
    /// Share of metered node windows over the cap.
    fn cap_violation_fraction(&self) -> f64;
    /// Node decision windows metered so far.
    fn metered_windows(&self) -> u64;
    /// Cluster reallocations performed so far.
    fn reallocations(&self) -> u64;
}

impl FleetNodeControl for ServeFeeder {
    fn caps_w(&self) -> &[f64] {
        self.inner().caps_w()
    }

    fn feed(&mut self, fleet: &mut Fleet, upto_ticks: u64) {
        ServeFeeder::feed(self, fleet, upto_ticks);
    }

    fn offered(&self) -> u64 {
        ServeFeeder::offered(self)
    }

    fn cap_violation_fraction(&self) -> f64 {
        self.inner().cap_violation_fraction()
    }

    fn metered_windows(&self) -> u64 {
        self.inner().windows()
    }

    fn reallocations(&self) -> u64 {
        self.inner()
            .cluster()
            .map_or(0, ClusterGovernor::reallocations)
    }
}

fn batch_phase(name: &str, instructions: u64, memory_bound: bool) -> PhaseProgram {
    let mut b = PhaseDescriptor::builder(name);
    b.instructions(instructions);
    if memory_bound {
        b.core_cpi(1.1)
            .mem_fraction(0.5)
            .l1_mpi(0.04)
            .l2_mpi(0.005)
            .overlap(0.3);
    } else {
        b.core_cpi(0.7);
    }
    PhaseProgram::from_phase(b.build().expect("static phase is valid"))
}

/// The fleet-mixed budget: the datacenter watts and one budget-tree rack
/// per cohort of the fleet-mixed shape, in its node order.
pub fn fleet_racks() -> (f64, Vec<RackSpec>) {
    let node = NodeSpec {
        floor_w: 6.0,
        ceiling_w: 24.5,
    };
    let racks: Vec<RackSpec> = [FLEET_SERVE_LANES, FLEET_BATCH_LANES, FLEET_BATCH_LANES]
        .into_iter()
        .map(|lanes| RackSpec {
            ceiling_w: FLEET_RACK_W_PER_NODE * lanes as f64,
            nodes: vec![node; lanes],
        })
        .collect();
    let nodes: usize = racks.iter().map(|r| r.nodes.len()).sum();
    (FLEET_W_PER_NODE * nodes as f64, racks)
}

/// The fleet-mixed shape: cohort 0 serve rack, 1 compute rack, 2 memory
/// rack.
fn fleet_shape(seed: u64, streams: &[RequestWorkload]) -> SimResult<Fleet> {
    let governed = CohortMode::Governed {
        cadence_ticks: serve_exp::FLEET_CADENCE_TICKS,
    };
    let node_seed = |node: usize| mix(seed, NODE_SALT + node as u64);
    let mut fleet = Fleet::new(Seconds::from_millis(10.0));
    fleet.add_cohort(
        streams
            .iter()
            .enumerate()
            .map(|(lane, s)| s.machine(MachineConfig::pentium_m_755(node_seed(lane))))
            .collect(),
        governed,
    )?;
    for (rack, memory_bound) in [(1, false), (2, true)] {
        // Neither finishes inside the horizon (~40 s of work each).
        let instructions = if memory_bound {
            20_000_000_000
        } else {
            80_000_000_000
        };
        let machines = (0..FLEET_BATCH_LANES)
            .map(|lane| {
                let node = rack * 10_000 + lane;
                Machine::new(
                    MachineConfig::pentium_m_755(node_seed(node)),
                    batch_phase("fleet-batch", instructions, memory_bound),
                )
            })
            .collect();
        fleet.add_cohort(machines, governed)?;
    }
    Ok(fleet)
}

/// The fleet-mixed serve rack's arrival streams, drawn from `seed`.
fn fleet_streams(seed: u64) -> SimResult<Vec<RequestWorkload>> {
    let mut b = RequestWorkload::builder("fleet-front-end");
    b.seed(seed)
        .day(Seconds::new(FLEET_DAY_S))
        .rates(serve_exp::BASE_RPS, serve_exp::PEAK_RPS)
        .burst(
            Seconds::new(FLEET_SPIKE.0),
            Seconds::new(FLEET_SPIKE.1),
            FLEET_SPIKE.2,
        );
    let base = b.build()?;
    Ok((0..FLEET_SERVE_LANES)
        .map(|lane| base.reseeded(mix(seed, LANE_SALT + lane as u64)))
        .collect())
}

/// Builds the standard fleet-mixed controller: PM per node under a
/// hierarchical budget tree, the serve rack fed by a [`ServeFeeder`].
///
/// # Errors
///
/// Propagates tree and controller construction errors.
pub fn standard_controller(
    ctx: &ExperimentContext,
    racks: &[RackSpec],
    budget_w: f64,
    streams: Vec<RequestWorkload>,
) -> SimResult<ServeFeeder> {
    let tree = BudgetTree::new(budget_w, racks)?;
    let governor = ClusterGovernor::with_reserve(tree, 0.5)?;
    let pm = FleetPmController::hierarchical(ctx.table().clone(), ctx.power_model(), governor)?;
    Ok(ServeFeeder::new(pm, SERVE_COHORT, streams))
}

const SERVE_COHORT: CohortId = 0;

/// Drives a [`FleetNodeControl`] through `run_des`: times cluster windows,
/// checks the budget after every reallocation, and — when traced —
/// attributes host time to cohorts, the feeder and per-node control.
pub struct FleetRunner<'a, C> {
    inner: C,
    budget_w: f64,
    windows: Option<&'a mut Histogram>,
    last_window: Instant,
    breaches: Vec<String>,
    spans: Option<SpanSink>,
    last_exit: Instant,
    completed: Vec<u64>,
}

impl<'a, C: FleetNodeControl> FleetRunner<'a, C> {
    /// Wraps `inner` for a run against a `budget_w` datacenter budget,
    /// timing cluster windows into `windows` when given; the clocks start
    /// now, so build it right before `run_des`.
    pub fn new(
        inner: C,
        budget_w: f64,
        windows: Option<&'a mut Histogram>,
        spans: Option<SpanSink>,
    ) -> Self {
        let now = Instant::now();
        FleetRunner {
            inner,
            budget_w,
            windows,
            last_window: now,
            breaches: Vec::new(),
            spans,
            last_exit: now,
            completed: vec![0; FLEET_SERVE_LANES],
        }
    }

    fn traced_cohort_step(
        &mut self,
        fleet: &mut Fleet,
        cohort: CohortId,
        now_ticks: u64,
    ) -> SimResult<()> {
        let spans = self.spans.clone().expect("traced");
        let stepped = since(self.last_exit);
        let lanes = fleet.lanes(cohort);
        if cohort == SERVE_COHORT {
            let before: Vec<(usize, u64)> = (0..lanes)
                .map(|l| {
                    fleet
                        .queue(cohort, l)
                        .map_or((0, 0), |q| (q.pending(), q.arrived()))
                })
                .collect();
            let clock = Instant::now();
            self.inner
                .feed(fleet, now_ticks + serve_exp::FLEET_CADENCE_TICKS);
            let feed_ns = since(clock);
            let mut s = spans.borrow_mut();
            s.serve_cohort_ns += stepped;
            s.arrivals_ns += feed_ns;
            for (lane, (pending, arrived)) in before.into_iter().enumerate() {
                let queue = fleet
                    .queue(cohort, lane)
                    .expect("serve lanes expose their queue");
                let new = queue.arrived() - arrived;
                s.arrived += new;
                s.serve_intervals += 1;
                if pending == 0 && new == 0 {
                    s.idle_intervals += 1;
                }
                if queue.completed() > self.completed[lane] {
                    s.useful_decides += 1;
                }
                self.completed[lane] = queue.completed();
            }
        } else {
            spans.borrow_mut().batch_cohort_ns += stepped;
        }
        let clock = Instant::now();
        let result = self.inner.cohort_stepped(fleet, cohort, now_ticks);
        let control_ns = since(clock);
        let mut s = spans.borrow_mut();
        s.decide_ns += control_ns;
        s.decide_calls += lanes as u64;
        s.intervals += lanes as u64;
        drop(s);
        self.last_exit = Instant::now();
        result
    }

    /// Budget breaches seen after reallocations.
    pub fn breaches(&self) -> &[String] {
        &self.breaches
    }

    /// The wrapped controller.
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: FleetNodeControl> FleetController for FleetRunner<'_, C> {
    fn cohort_stepped(
        &mut self,
        fleet: &mut Fleet,
        cohort: CohortId,
        now_ticks: u64,
    ) -> SimResult<()> {
        if self.spans.is_some() {
            self.traced_cohort_step(fleet, cohort, now_ticks)
        } else {
            self.inner.cohort_stepped(fleet, cohort, now_ticks)
        }
    }

    fn governor_tick(&mut self, fleet: &mut Fleet, now_ticks: u64) -> SimResult<()> {
        let clock = Instant::now();
        self.inner.governor_tick(fleet, now_ticks)?;
        if let Some(spans) = &self.spans {
            let mut s = spans.borrow_mut();
            s.governor_tick_ns += since(clock);
            s.governor_ticks += 1;
        }
        let rack_sums: Vec<f64> = (0..fleet.cohort_count())
            .map(|c| {
                let offset = fleet.node_offset(c);
                self.inner.caps_w()[offset..offset + fleet.lanes(c)]
                    .iter()
                    .sum()
            })
            .collect();
        checks::caps_within_budget(now_ticks, &rack_sums, self.budget_w, &mut self.breaches);
        if let Some(windows) = self.windows.as_deref_mut() {
            windows.lap(&mut self.last_window);
        }
        if self.spans.is_some() {
            self.last_exit = Instant::now();
        }
        Ok(())
    }
}

/// One fleet-mixed pass under the standard controller.
///
/// # Errors
///
/// Propagates construction and `run_des` errors.
pub fn fleet_pass(
    ctx: &ExperimentContext,
    seed: u64,
    windows: Option<&mut Histogram>,
    spans: Option<&SpanSink>,
) -> SimResult<Pass> {
    fleet_pass_with(seed, windows, spans, |racks, budget, streams| {
        standard_controller(ctx, racks, budget, streams)
    })
}

/// One fleet-mixed pass under the controller `make` builds from the racks,
/// the budget and the serve streams (tests inject broken controllers here).
///
/// # Errors
///
/// Propagates construction and `run_des` errors.
pub fn fleet_pass_with<C: FleetNodeControl>(
    seed: u64,
    windows: Option<&mut Histogram>,
    spans: Option<&SpanSink>,
    make: impl FnOnce(&[RackSpec], f64, Vec<RequestWorkload>) -> SimResult<C>,
) -> SimResult<Pass> {
    let streams = fleet_streams(seed)?;
    let mut fleet = fleet_shape(seed, &streams)?;
    let (budget_w, racks) = fleet_racks();
    let mut controller = make(&racks, budget_w, streams)?;
    controller.feed(&mut fleet, serve_exp::FLEET_CADENCE_TICKS);
    let mut runner = FleetRunner::new(controller, budget_w, windows, spans.cloned());
    let run_clock = Instant::now();
    fleet.run_des(
        FLEET_HORIZON_TICKS,
        serve_exp::FLEET_GOVERNOR_EVERY_TICKS,
        &mut runner,
    )?;
    let run_ns = since(run_clock);

    let mut failures = runner.breaches().to_vec();
    let mut out = SimOutcome::default();
    let mut arrived = 0u64;
    let mut sojourn_s = 0.0;
    let mut serve_energy_j = 0.0;
    let mut instructions = 0.0;
    for cohort in 0..fleet.cohort_count() {
        for lane in 0..fleet.lanes(cohort) {
            let energy = fleet.energy(cohort, lane).joules();
            out.energy_j += energy;
            out.node_seconds += fleet.elapsed(cohort, lane).seconds();
            out.transitions += fleet.machine(cohort, lane).transitions_performed();
            instructions += fleet
                .counter_snapshot(cohort, lane)
                .get(HardwareEvent::InstructionsRetired);
            if let Some(queue) = fleet.queue(cohort, lane) {
                let label = format!("fleet serve lane {lane}");
                checks::queue_conserved(
                    &label,
                    queue.arrived(),
                    queue.completed(),
                    queue.pending() as u64,
                    &mut failures,
                );
                arrived += queue.arrived();
                out.jobs += queue.completed();
                sojourn_s += queue.total_sojourn();
                serve_energy_j += energy;
            }
        }
    }
    out.intervals = fleet.nodes() as u64 * (FLEET_HORIZON_TICKS / serve_exp::FLEET_CADENCE_TICKS);
    checks::offered_arrived(runner.inner().offered(), arrived, &mut failures);
    out.energy_per_job_mj = serve_energy_j / out.jobs as f64 * 1e3;
    out.sojourn_mean_ms = sojourn_s / out.jobs as f64 * 1e3;
    // Each metered window is one node's 100 ms cadence step.
    out.violation_min = runner.inner().cap_violation_fraction()
        * runner.inner().metered_windows() as f64
        * serve_exp::FLEET_CADENCE_TICKS as f64
        * 0.010
        / 60.0;
    out.sim_runtime_s = fleet.time_at(FLEET_HORIZON_TICKS).seconds();
    out.ginstr_retired = instructions / 1e9;
    out.reallocations = runner.inner().reallocations();
    if let Some(spans) = spans {
        let mut s = spans.borrow_mut();
        s.run_ns += run_ns;
        s.step_ns += run_ns;
        s.completed += out.jobs;
        s.transitions += out.transitions;
    }
    Ok(Pass { sim: out, failures })
}

/// Runs one pass of `workload`; with a `clock`, times control intervals
/// (cluster windows for the fleet) into it.
///
/// # Errors
///
/// Propagates simulator errors; the caller counts them as failed passes.
pub fn run_pass(
    workload: Workload,
    ctx: &ExperimentContext,
    programs: &[(String, PhaseProgram)],
    seed: u64,
    clock: Option<&mut Histogram>,
    spans: Option<&SpanSink>,
) -> SimResult<Pass> {
    match workload {
        Workload::ServeDiurnal => serve_pass(ctx, seed, clock, spans),
        Workload::BatchSpec => batch_pass(ctx, programs, seed, clock, spans),
        Workload::FleetMixed => fleet_pass(ctx, seed, clock, spans),
    }
}
