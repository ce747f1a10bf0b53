//! One benchmark run: set-up, timed passes, checks, and the metrics.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use aapm_experiments::pool::Pool;
use aapm_experiments::ExperimentContext;
use aapm_platform::error::Result as SimResult;
use aapm_platform::program::PhaseProgram;

use crate::checks;
use crate::hist::{median, Histogram};
use crate::layers;
use crate::report::{decide_metric, Report};
use crate::trace::Spans;
use crate::workloads::{fleet_pass, fleet_racks, mix, run_pass, SimOutcome, Workload};

/// Model trainings timed for `setup_s` (the median counts).
pub const SETUPS: usize = 3;

/// Distinct input seeds one run cycles through; each simulated metric is
/// the median over them. A serve day's mean sojourn swings by a factor of
/// four between seeds (the 3× burst meets a heavy-tailed demand draw), a
/// fleet day's serve rack is only eight lanes, and a batch pass's PM cap
/// violations are a handful of 10 ms windows, so one input alone would
/// make those metrics swing from seed to seed.
pub fn inputs(workload: Workload) -> usize {
    match workload {
        Workload::ServeDiurnal => 128,
        Workload::FleetMixed => 32,
        Workload::BatchSpec => 16,
    }
}

/// The seed of input `k` of a run at `seed`.
pub fn input_seed(seed: u64, k: usize) -> u64 {
    mix(seed, k as u64)
}

/// The trained models and programs every pass shares.
pub struct Setup {
    /// Trained models and platform constants.
    pub ctx: ExperimentContext,
    /// The 26 SPEC-like programs.
    pub programs: Vec<(String, PhaseProgram)>,
    /// Median set-up seconds over [`SETUPS`] repetitions.
    pub setup_s: f64,
}

/// Trains the models [`SETUPS`] times and keeps the last.
///
/// # Errors
///
/// Propagates training errors.
pub fn set_up() -> SimResult<Setup> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let ctx = ExperimentContext::train()?;
        let programs = aapm_workloads::spec::suite_programs()?;
        times.push(start.elapsed().as_secs_f64());
        last = Some((ctx, programs));
    }
    let (ctx, programs) = last.expect("SETUPS > 0");
    Ok(Setup {
        ctx,
        programs,
        setup_s: median(&times).expect("SETUPS > 0"),
    })
}

/// Intervals a timing chunk holds at least, so its p99 has ten samples
/// beyond it. Reporting the median chunk keeps a burst of host noise in
/// one chunk from moving the run's figure.
pub const CHUNK_INTERVALS: u64 = 1_000;

/// What a sequence of passes measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Passes attempted.
    pub attempted: u64,
    /// Passes with a failed check or an error.
    pub failed: u64,
    /// Simulated node-seconds per host second, one per successful pass run
    /// without per-interval clock reads.
    pub rates: Vec<f64>,
    /// Host time per control interval (cluster window for the fleet) of
    /// the chunk of clocked passes in progress.
    pub clock: Histogram,
    /// `(p50, p99)` ns of each closed chunk: consecutive passes holding at
    /// least [`CHUNK_INTERVALS`] intervals.
    pub chunks: Vec<(f64, f64)>,
    /// The first outcome of each input.
    pub outcomes: Vec<Option<SimOutcome>>,
    /// Traced spans, summed over passes.
    pub spans: Spans,
    /// Traced passes that completed.
    pub traced_passes: u64,
}

/// Runs passes of `workload` for at least `seconds`, cycling through its
/// inputs at least once, plus one repeat of input 0 when there is no
/// `reference` to compare against. Each outcome is checked for finiteness
/// and against the first outcome of the same input: from `reference` when
/// given (the untraced phase), else from this phase.
///
/// Untraced passes alternate between clocked ones, which read the clock
/// every interval for `step_us_*`, and whole ones, which give
/// `sim_per_wall` without that per-interval cost. The alternation flips
/// each input cycle, so every input is run both ways. Traced passes are
/// all whole.
pub fn run_phase(
    workload: Workload,
    setup: &Setup,
    seed: u64,
    seconds: f64,
    traced: bool,
    reference: Option<&[Option<SimOutcome>]>,
) -> Phase {
    let count = inputs(workload);
    let min_passes = count + usize::from(reference.is_none());
    let mut phase = Phase {
        outcomes: vec![None; count],
        ..Phase::default()
    };
    let start = Instant::now();
    let mut i = 0;
    while i < min_passes || start.elapsed().as_secs_f64() < seconds {
        let k = i % count;
        let clocked = !traced && (i + i / count).is_multiple_of(2);
        i += 1;
        let spans = traced.then(|| Rc::new(RefCell::new(Spans::default())));
        let clock = Instant::now();
        let result = run_pass(
            workload,
            &setup.ctx,
            &setup.programs,
            input_seed(seed, k),
            clocked.then_some(&mut phase.clock),
            spans.as_ref(),
        );
        let wall = clock.elapsed().as_secs_f64();
        phase.attempted += 1;
        let failures = match result {
            Ok(pass) => {
                let mut failures = pass.failures;
                checks::finite(&pass.sim, &mut failures);
                let first = reference.map_or(phase.outcomes[k], |r| r[k]);
                match first {
                    Some(first) => checks::repeats(&first, &pass.sim, &mut failures),
                    None if reference.is_some() => {
                        failures.push(format!("input {k} has no reference outcome"))
                    }
                    None => {}
                }
                if phase.outcomes[k].is_none() {
                    phase.outcomes[k] = Some(pass.sim);
                }
                if !clocked {
                    phase.rates.push(pass.sim.node_seconds / wall);
                }
                failures
            }
            Err(e) => vec![format!("pass error: {e}")],
        };
        if phase.clock.len() >= CHUNK_INTERVALS {
            phase.close_chunk();
        }
        if let Some(spans) = spans {
            phase.spans.absorb(&spans.borrow());
            phase.traced_passes += 1;
        }
        if !failures.is_empty() {
            phase.failed += 1;
            for failure in failures.iter().take(3) {
                eprintln!("perfbench: {} input {k}: {failure}", workload.name());
            }
        }
    }
    if phase.chunks.is_empty() {
        phase.close_chunk();
    }
    phase
}

impl Phase {
    fn close_chunk(&mut self) {
        if let (Some(p50), Some(p99)) = (self.clock.quantile(0.5), self.clock.quantile(0.99)) {
            self.chunks.push((p50, p99));
        }
        self.clock = Histogram::default();
    }

    /// Median over chunks of the chunk p50 and p99, in nanoseconds.
    pub fn step_quantiles(&self) -> Option<(f64, f64)> {
        let p50: Vec<f64> = self.chunks.iter().map(|c| c.0).collect();
        let p99: Vec<f64> = self.chunks.iter().map(|c| c.1).collect();
        Some((median(&p50)?, median(&p99)?))
    }
}

/// The run's simulated metrics: each the median over the phase's inputs
/// (a serve day's mean sojourn is heavy-tailed across days, so a mean
/// over days would swing with the worst one); `None` when any input never
/// produced an outcome.
fn simulated(phase: &Phase) -> Option<[(&'static str, f64); 5]> {
    let outcomes: Vec<SimOutcome> = phase.outcomes.iter().copied().collect::<Option<_>>()?;
    let over_inputs =
        |f: fn(&SimOutcome) -> f64| median(&outcomes.iter().map(f).collect::<Vec<_>>());
    Some([
        ("energy_j", over_inputs(|o| o.energy_j)?),
        (
            "energy_per_request_mj",
            over_inputs(|o| o.energy_per_job_mj)?,
        ),
        ("sojourn_mean_ms", over_inputs(|o| o.sojourn_mean_ms)?),
        ("violation_min", over_inputs(|o| o.violation_min)?),
        ("sim_runtime_s", over_inputs(|o| o.sim_runtime_s)?),
    ])
}

/// A size line of this process's Linux `/proc/self/status`, MiB.
fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of this process since start or the last
/// [`reset_peak_rss`], MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    status_mb("VmHWM:")
}

/// Resets the peak resident set to the current one (Linux
/// `clear_refs` 5), so a later [`peak_rss_mb`] covers only what runs after
/// it, plus what is still resident.
///
/// # Errors
///
/// The write's error, e.g. on a kernel without `clear_refs`.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Mean absolute difference, in percentage points, between the paper and
/// reproduction columns of the `headline` experiment.
///
/// # Errors
///
/// Propagates experiment errors; a cell that does not parse is an error.
pub fn paper_err_pp(ctx: &ExperimentContext) -> SimResult<f64> {
    let output = aapm_experiments::headline::run(ctx, &Pool::serial())?;
    let bad = |cell: &str| aapm_platform::error::PlatformError::InvalidConfig {
        parameter: "headline",
        reason: format!("unparsable percentage '{cell}'"),
    };
    let mut diffs = Vec::new();
    for (_, table) in &output.tables {
        for line in table.to_csv().lines().skip(1) {
            // The claim may hold quoted commas; the two numbers never do.
            let mut cells = line.rsplitn(3, ',');
            let repro = cells.next().unwrap_or_default();
            let paper = cells.next().unwrap_or_default();
            let pct = |cell: &str| {
                cell.trim_end_matches('%')
                    .parse::<f64>()
                    .map_err(|_| bad(cell))
            };
            diffs.push((pct(paper)? - pct(repro)?).abs());
        }
    }
    if diffs.is_empty() {
        return Err(bad("no rows"));
    }
    Ok(diffs.iter().sum::<f64>() / diffs.len() as f64)
}

/// The `--trace 0` run: end-to-end metrics with tracing off.
///
/// # Errors
///
/// Propagates set-up and headline errors (passes that fail are counted,
/// not propagated).
pub fn untraced(workload: Workload, seed: u64, seconds: f64) -> SimResult<Report> {
    let setup = set_up()?;
    let paper_err = paper_err_pp(&setup.ctx)?;
    // The trainings and the headline peak above the passes; leave them out.
    let before = peak_rss_mb();
    match reset_peak_rss() {
        Ok(()) => eprintln!(
            "perfbench: peak RSS {:.2} MB after set-up and headline, {:.2} MB resident at the reset",
            before.unwrap_or(f64::NAN),
            status_mb("VmRSS:").unwrap_or(f64::NAN)
        ),
        Err(e) => eprintln!("perfbench: peak RSS not reset ({e}); peak_rss_mb covers set-up"),
    }
    let phase = run_phase(workload, &setup, seed, seconds, false, None);
    let mut report = Report::default();
    report.attempted = phase.attempted;
    report.failed = phase.failed;
    report.set("setup_s", setup.setup_s);
    if let Some(rate) = median(&phase.rates) {
        report.set("sim_per_wall", rate);
    }
    if let Some((p50, p99)) = phase.step_quantiles() {
        report.set("step_us_p50", p50 / 1e3);
        report.set("step_us_p99", p99 / 1e3);
    }
    if let Some(rss) = peak_rss_mb() {
        report.set("peak_rss_mb", rss);
    }
    for (name, value) in simulated(&phase).into_iter().flatten() {
        report.set(name, value);
    }
    report.set("paper_err_pp", paper_err);
    if let Some(o) = phase.outcomes.first().copied().flatten() {
        eprintln!(
            "perfbench: {} input 0 simulated outcome: {o:?}",
            workload.name()
        );
    }
    Ok(report)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The `--trace 1` run: per-layer metrics. Half the time runs untraced
/// passes, half traced ones (their outcomes must match bit for bit); the
/// fixed-input layer timings and one traced fleet-mixed pass at seed 0
/// (for the cluster tier) come on top.
///
/// # Errors
///
/// Propagates set-up and layer-timing errors.
pub fn traced(workload: Workload, seed: u64, seconds: f64) -> SimResult<Report> {
    let setup = set_up()?;
    let ctx = &setup.ctx;
    let mut report = Report::default();

    let [characterize, collect, fit] = layers::setup_stages_s()?;
    report.set("setup.characterize_s", characterize);
    report.set("setup.collect_s", collect);
    report.set("setup.fit_s", fit);
    report.set("platform.machine.tick_ns", layers::machine_tick_ns());
    report.set("platform.machine.serve_tick_ns", layers::serve_tick_ns()?);
    report.set(
        "platform.machine.fast_forward_ns_per_sim_s",
        layers::fast_forward_ns_per_sim_s(),
    );
    report.set("platform.batch.lane_tick_ns", layers::batch_lane_tick_ns());
    report.set(
        "platform.batch.serve_lane_tick_ns",
        layers::batch_serve_lane_tick_ns()?,
    );
    report.set(
        "platform.fleet.des_node_tick_ns",
        layers::des_node_tick_ns(),
    );
    report.set("platform.cache.access_ns", layers::cache_access_ns()?);
    report.set("telemetry.daq.sample_ns", layers::daq_sample_ns());
    report.set("telemetry.pmc.sample_ns", layers::pmc_sample_ns());
    report.set("telemetry.sensor.read_ns", layers::sensor_read_ns());
    report.set("telemetry.window.p99_ns.w64", layers::window_p99_ns(64));
    report.set("telemetry.window.p99_ns.w256", layers::window_p99_ns(256));
    report.set(
        "telemetry.metrics.step_overhead_ns",
        layers::metrics_step_overhead_ns(ctx)?,
    );
    for (kind, ns) in layers::governor_decide_ns(ctx)? {
        report.set(decide_metric(kind), ns);
    }
    let fleet24 = aapm_experiments::fleet::budget_racks();
    let w24 = layers::reallocate_ns(aapm_experiments::fleet::DATACENTER_W, &fleet24)?;
    report.set("core.cluster.reallocate_ns.w24", w24);
    let (budget, racks) = fleet_racks();
    report.set(
        "core.cluster.reallocate_ns.mixed",
        layers::reallocate_ns(budget, &racks)?,
    );
    report.set("workloads.requests.arrival_ns", layers::arrival_ns()?);
    report.set("trace.interval_clock_ns", layers::interval_clock_ns());

    // The cluster tier, traced on one fixed fleet-mixed pass.
    let cluster_spans = Rc::new(RefCell::new(Spans::default()));
    let cluster = fleet_pass(ctx, 0, None, Some(&cluster_spans))?;
    let cluster_spans = cluster_spans.borrow();
    report.set(
        "core.cluster.node_control_ns",
        ratio(cluster_spans.decide_ns, cluster_spans.decide_calls),
    );
    report.set(
        "core.cluster.governor_tick_ns",
        ratio(cluster_spans.governor_tick_ns, cluster_spans.governor_ticks),
    );
    report.set(
        "core.cluster.reallocations",
        cluster.sim.reallocations as f64,
    );

    let plain = run_phase(workload, &setup, seed, seconds / 2.0, false, None);
    let traced = run_phase(
        workload,
        &setup,
        seed,
        seconds / 2.0,
        true,
        Some(&plain.outcomes),
    );
    report.attempted = plain.attempted + traced.attempted + 1;
    report.failed = plain.failed + traced.failed + u64::from(!cluster.failures.is_empty());
    let s = &traced.spans;
    let passes = traced.traced_passes.max(1);
    let per_pass = |count: u64| count as f64 / passes as f64;
    report.set("core.runtime.step_ns", ratio(s.step_ns, s.intervals));
    report.set(
        "core.runtime.self_ns",
        (s.step_ns as f64 - s.decide_ns as f64 - s.arrivals_ns as f64) / s.intervals.max(1) as f64,
    );
    report.set("core.runtime.intervals", per_pass(s.intervals));
    report.set(
        "core.governor.decide_ns",
        ratio(s.decide_ns, s.decide_calls),
    );
    report.set("core.governor.decide_share", ratio(s.decide_ns, s.step_ns));
    report.set("core.governor.decide_calls", per_pass(s.decide_calls));
    // Serve: decide calls whose queue sample carried a sojourn; fleet:
    // serve-lane windows that completed a request.
    let useful_base = if workload == Workload::FleetMixed {
        s.serve_intervals
    } else {
        s.decide_calls
    };
    report.set(
        "core.governor.p99_useful_frac",
        ratio(s.useful_decides, useful_base),
    );
    report.set(
        "platform.fleet.serve_cohort_share",
        ratio(s.serve_cohort_ns, s.run_ns),
    );
    report.set(
        "platform.fleet.batch_cohort_share",
        ratio(s.batch_cohort_ns, s.run_ns),
    );
    report.set(
        "platform.serve.idle_interval_frac",
        ratio(s.idle_intervals, s.serve_intervals),
    );
    report.set("platform.pstate_transitions", per_pass(s.transitions));
    report.set("workloads.requests.arrived", per_pass(s.arrived));
    report.set("workloads.requests.completed", per_pass(s.completed));
    if let (Some(untraced_rate), Some(traced_rate)) = (median(&plain.rates), median(&traced.rates))
    {
        report.set("trace.overhead_frac", 1.0 - traced_rate / untraced_rate);
    }
    Ok(report)
}
