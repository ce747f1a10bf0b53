//! Timing decorators for the traced run.
//!
//! Each decorator wraps one public trait boundary of the program —
//! [`Governor`] and [`WorkloadSource`] here; `FleetController` in
//! [`crate::workloads::FleetRunner`], which also runs the budget check —
//! times the calls that cross it with [`Instant`], and adds them to a
//! shared [`Spans`] record. None of them changes a decision: the
//! simulated outcome of a traced pass is bit-identical to an untraced
//! one, which the benchmark checks.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use aapm::governor::{Governor, GovernorCommand, SampleContext};
use aapm_platform::config::MachineConfig;
use aapm_platform::events::HardwareEvent;
use aapm_platform::machine::Machine;
use aapm_platform::pstate::PStateId;
use aapm_platform::requests::Request;
use aapm_platform::throttle::ThrottleLevel;
use aapm_platform::units::Seconds;
use aapm_platform::workload::WorkloadSource;
use aapm_telemetry::metrics::Metrics;

/// Host time and counts gathered at the layer boundaries of one traced
/// pass (nanoseconds unless named otherwise).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Spans {
    /// Node control intervals run (a `Session::step`, or one lane of one
    /// fleet cohort step).
    pub intervals: u64,
    /// Host time of those intervals, end to end.
    pub step_ns: u64,
    /// Governor decisions taken (`decide` calls, or fleet per-node control).
    pub decide_calls: u64,
    /// Host time inside the governor (`decide` + `throttle_decision`, or
    /// the fleet controller's per-node control).
    pub decide_ns: u64,
    /// Decisions whose queue sample brought at least one new sojourn.
    pub useful_decides: u64,
    /// Host time generating arrivals (`arrivals_into`, or the fleet feeder).
    pub arrivals_ns: u64,
    /// Requests generated.
    pub arrived: u64,
    /// Requests completed.
    pub completed: u64,
    /// Serve intervals observed, and those with an empty queue and no
    /// arrival (work a skip-to-next-arrival would remove).
    pub serve_intervals: u64,
    /// See [`Spans::serve_intervals`].
    pub idle_intervals: u64,
    /// Fleet only: host time stepping serve and batch cohorts
    /// (`MachineBatch::tick_all` plus the event heap), attributed to the
    /// cohort whose callback ended the span.
    pub serve_cohort_ns: u64,
    /// See [`Spans::serve_cohort_ns`].
    pub batch_cohort_ns: u64,
    /// Fleet only: host time of the whole `run_des` call.
    pub run_ns: u64,
    /// Fleet only: host time inside the controller's `governor_tick`
    /// (cluster reallocation), and the ticks taken.
    pub governor_tick_ns: u64,
    /// See [`Spans::governor_tick_ns`].
    pub governor_ticks: u64,
    /// P-state transitions performed.
    pub transitions: u64,
    /// Interval the last arrival batch covered held this many arrivals
    /// (working state linking the source and governor decorators).
    pending_arrivals: u64,
    /// Queue depth the governor saw at the previous interval.
    last_depth: usize,
}

impl Spans {
    /// Adds another pass's spans to these.
    pub fn absorb(&mut self, other: &Spans) {
        self.intervals += other.intervals;
        self.step_ns += other.step_ns;
        self.decide_calls += other.decide_calls;
        self.decide_ns += other.decide_ns;
        self.useful_decides += other.useful_decides;
        self.arrivals_ns += other.arrivals_ns;
        self.arrived += other.arrived;
        self.completed += other.completed;
        self.serve_intervals += other.serve_intervals;
        self.idle_intervals += other.idle_intervals;
        self.serve_cohort_ns += other.serve_cohort_ns;
        self.batch_cohort_ns += other.batch_cohort_ns;
        self.run_ns += other.run_ns;
        self.governor_tick_ns += other.governor_tick_ns;
        self.governor_ticks += other.governor_ticks;
        self.transitions += other.transitions;
    }
}

/// A shared, single-threaded handle on one pass's spans.
pub type SpanSink = Rc<RefCell<Spans>>;

/// Nanoseconds since `start`, saturating.
pub fn since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Times a borrowed governor's decisions. The runtime asks for the
/// throttle level right after the p-state, so one span runs from entering
/// `decide` to leaving `throttle_decision` (two clock reads per interval).
pub struct TimedGovernor<'g> {
    inner: &'g mut dyn Governor,
    spans: SpanSink,
    decide_start: Option<Instant>,
}

impl<'g> TimedGovernor<'g> {
    /// Wraps `inner`, recording into `spans`.
    pub fn new(inner: &'g mut dyn Governor, spans: SpanSink) -> Self {
        TimedGovernor {
            inner,
            spans,
            decide_start: None,
        }
    }
}

impl Governor for TimedGovernor<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn events(&self) -> Vec<HardwareEvent> {
        self.inner.events()
    }

    fn decide(&mut self, ctx: &SampleContext<'_>) -> PStateId {
        self.decide_start = Some(Instant::now());
        let target = self.inner.decide(ctx);
        let mut spans = self.spans.borrow_mut();
        spans.decide_calls += 1;
        if let Some(queue) = ctx.queue {
            spans.serve_intervals += 1;
            if spans.last_depth == 0 && spans.pending_arrivals == 0 {
                spans.idle_intervals += 1;
            }
            spans.last_depth = queue.depth;
            if !queue.sojourns.is_empty() {
                spans.useful_decides += 1;
            }
        }
        target
    }

    fn throttle_decision(&mut self, ctx: &SampleContext<'_>) -> ThrottleLevel {
        let start = self.decide_start.take().unwrap_or_else(Instant::now);
        let level = self.inner.throttle_decision(ctx);
        self.spans.borrow_mut().decide_ns += since(start);
        level
    }

    fn command(&mut self, command: GovernorCommand) {
        self.inner.command(command);
    }

    fn install_metrics(&mut self, metrics: Metrics) {
        self.inner.install_metrics(metrics);
    }
}

/// Times an owned workload source's arrival generation.
pub struct TimedSource<W> {
    inner: W,
    spans: SpanSink,
}

impl<W> TimedSource<W> {
    /// Wraps `inner`, recording into `spans`.
    pub fn new(inner: W, spans: SpanSink) -> Self {
        TimedSource { inner, spans }
    }
}

impl<W: WorkloadSource> WorkloadSource for TimedSource<W> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn machine(&self, config: MachineConfig) -> Machine {
        self.inner.machine(config)
    }

    fn arrivals_into(&mut self, start: Seconds, end: Seconds, out: &mut Vec<Request>) {
        let before = out.len();
        let clock = Instant::now();
        self.inner.arrivals_into(start, end, out);
        let ns = since(clock);
        let mut spans = self.spans.borrow_mut();
        spans.arrivals_ns += ns;
        let arrived = (out.len() - before) as u64;
        spans.arrived += arrived;
        spans.pending_arrivals = arrived;
    }

    fn open_loop(&self) -> bool {
        self.inner.open_loop()
    }
}
