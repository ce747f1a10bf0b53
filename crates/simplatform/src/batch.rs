//! Lockstep structure-of-arrays simulation of independent machines.
//!
//! [`MachineBatch`] steps N independent [`Machine`]s through the same tick
//! cadence at once. The hot per-lane state (elapsed time, true energy,
//! phase progress, die temperature, and all hardware counters) lives in
//! contiguous per-lane arrays, and everything `Machine::tick` derives per
//! segment — retire rate, per-tick counter increments, per-tick energy,
//! the thermal target and decay factor — is precomputed per (segment × dt)
//! into the same layout. The common case ("every lane executes strictly
//! inside its current phase segment") then reduces to a handful of
//! branch-light, auto-vectorizable array sweeps: one fused
//! multiply-free add per counter slot, one add each for energy, progress,
//! and elapsed time, and a three-op exponential step for the temperature.
//!
//! Determinism is the design constraint, not an afterthought: every fast
//! path evaluates *bit-identical float expressions* to the scalar
//! [`Machine::tick`] on the same inputs. Precomputing a per-tick constant
//! is legal because the scalar path recomputes the identical expression
//! from identical inputs each tick; eligibility for the fast path is
//! decided with the very same `left / ips ≥ dt` division the scalar path
//! uses to clip a tick at a phase boundary. Any lane the fast path cannot
//! represent exactly — mid-DVFS-stall, inside the tick that crosses a
//! phase boundary, or a degenerate zero-rate segment — falls back to the
//! scalar `Machine::tick` for that tick (state is synced into the machine,
//! ticked, and loaded back), so batch-stepped lanes are bit-identical to
//! the same machines stepped alone. The property tests in this module pin
//! that equivalence over random tick/p-state/throttle scripts, mirroring
//! the PR 4 `tick` vs `tick_uncached` oracle.
//!
//! Grouping rule for callers: batch lanes must share a tick cadence but
//! nothing else — programs, seeds, p-states, and throttles may differ per
//! lane. Governed runs whose control decisions diverge per lane should
//! keep the scalar `Machine` (each `Session` owns its machine); the batch
//! is for same-cadence, externally-scripted populations — characterization
//! sweeps, benches, and fleet-style simulations.

use crate::counters::CounterSnapshot;
use crate::error::Result;
use crate::events::HardwareEvent;
use crate::machine::Machine;
use crate::pstate::PStateId;
use crate::requests::Request;
use crate::thermal::Celsius;
use crate::throttle::ThrottleLevel;
use crate::units::{Joules, Seconds};

const EVENTS: usize = HardwareEvent::COUNT;

/// Per-lane derived constants for one (segment × dt) combination, computed
/// by `refresh_lane` and scattered into the batch's SoA arrays.
struct LaneDerived {
    ips: f64,
    budget: f64,
    threshold: f64,
    executed: f64,
    tick_energy_j: f64,
    target_c: f64,
    decay: f64,
    inc: [f64; EVENTS],
}

/// N independent machines stepped in lockstep over SoA state.
///
/// # Examples
///
/// ```
/// use aapm_platform::batch::MachineBatch;
/// use aapm_platform::config::MachineConfig;
/// use aapm_platform::machine::Machine;
/// use aapm_platform::phase::PhaseDescriptor;
/// use aapm_platform::program::PhaseProgram;
/// use aapm_platform::units::Seconds;
///
/// let lane = |seed: u64| {
///     let phase = PhaseDescriptor::builder("work").instructions(30_000_000).build().unwrap();
///     Machine::new(MachineConfig::pentium_m_755(seed), PhaseProgram::from_phase(phase))
/// };
/// let mut batch = MachineBatch::new(vec![lane(1), lane(2)]);
/// let mut solo = lane(1);
/// for _ in 0..4 {
///     batch.tick_all(Seconds::from_millis(10.0));
///     solo.tick(Seconds::from_millis(10.0));
/// }
/// // Batch lanes are bit-identical to the same machine stepped alone
/// // (sync_lane writes the hot SoA state back before reading).
/// assert_eq!(batch.sync_lane(0).true_energy(), solo.true_energy());
/// assert_eq!(batch.sync_lane(0).counter_snapshot(), solo.counter_snapshot());
/// ```
#[derive(Debug)]
pub struct MachineBatch {
    machines: Vec<Machine>,
    // Hot per-lane accumulators; authoritative between syncs. `counts` is
    // event-major (`[event × lanes + lane]`) so each counter slot's add
    // sweeps a contiguous stripe across all lanes.
    elapsed_s: Vec<f64>,
    energy_j: Vec<f64>,
    phase_done: Vec<f64>,
    temp_c: Vec<f64>,
    counts: Vec<f64>,
    // Per-(segment × dt) derived constants, `refresh_lane`'s output.
    ips: Vec<f64>,
    budget: Vec<f64>,
    threshold: Vec<f64>,
    executed: Vec<f64>,
    tick_energy_j: Vec<f64>,
    target_c: Vec<f64>,
    decay: Vec<f64>,
    inc: Vec<f64>,
    // Lane classification: `fast` marks lanes whose derived constants are
    // valid (executing a live segment, or idling on sentinels); `ok` is
    // per-tick scratch for the eligibility sweep.
    fast: Vec<bool>,
    ok: Vec<bool>,
    // Which lanes' programs have finished, and how many; `refresh_lane`
    // keeps both current, since every path that can finish a lane ends
    // there.
    finished: Vec<bool>,
    finished_lanes: usize,
    // Tick length the derived constants were computed for (NaN until the
    // first `tick_all`; a cadence change recomputes every lane).
    dt_s: f64,
}

impl MachineBatch {
    /// Wraps `machines` (any mix of programs, seeds, and progress) into a
    /// lockstep batch.
    pub fn new(machines: Vec<Machine>) -> Self {
        let n = machines.len();
        let mut batch = MachineBatch {
            machines,
            elapsed_s: vec![0.0; n],
            energy_j: vec![0.0; n],
            phase_done: vec![0.0; n],
            temp_c: vec![0.0; n],
            counts: vec![0.0; n * EVENTS],
            ips: vec![0.0; n],
            budget: vec![0.0; n],
            threshold: vec![0.0; n],
            executed: vec![0.0; n],
            tick_energy_j: vec![0.0; n],
            target_c: vec![0.0; n],
            decay: vec![0.0; n],
            inc: vec![0.0; n * EVENTS],
            fast: vec![false; n],
            ok: vec![false; n],
            finished: vec![false; n],
            finished_lanes: 0,
            dt_s: f64::NAN,
        };
        for lane in 0..n {
            batch.load_lane(lane);
            batch.track_finished(lane);
        }
        batch
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// Whether the batch has no lanes.
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// Whether every lane's program has finished.
    pub fn all_finished(&self) -> bool {
        self.finished_lanes == self.machines.len()
    }

    /// Read access to one lane's machine **without syncing**.
    ///
    /// Control-plane state is always live here: the p-state, throttle
    /// level, program position, `finished`, and `completion_time` are
    /// maintained on the machine itself. The hot accumulators — counters,
    /// energy, elapsed time, temperature — are authoritative in the SoA
    /// arrays between syncs, so read those through
    /// [`MachineBatch::counter_snapshot`], [`MachineBatch::energy`], and
    /// [`MachineBatch::elapsed`], or take a fully coherent view with
    /// [`MachineBatch::sync_lane`] / [`MachineBatch::lane_mut`].
    pub fn lane(&self, lane: usize) -> &Machine {
        &self.machines[lane]
    }

    /// Read access to one lane, with its hot state synced back into the
    /// machine first — counters, energy, elapsed time, and temperature all
    /// reflect the batch's progress (this is the DAQ/PMC sampling path).
    pub fn sync_lane(&mut self, lane: usize) -> &Machine {
        self.write_back_lane(lane);
        &self.machines[lane]
    }

    /// Exclusive access to one lane's machine, synced on entry; when the
    /// guard drops, the machine's state is loaded back into the SoA arrays
    /// and the lane's derived constants are recomputed. This is the
    /// escape hatch for per-lane scalar operations the batch has no sweep
    /// for — e.g. `fast_forward`ing one lane through an unobserved span.
    pub fn lane_mut(&mut self, lane: usize) -> LaneGuard<'_> {
        self.write_back_lane(lane);
        LaneGuard { batch: self, lane }
    }

    /// Requests a p-state change on one lane (see [`Machine::set_pstate`]);
    /// the lane steps scalar ticks until the DVFS stall has elapsed.
    ///
    /// # Errors
    ///
    /// As [`Machine::set_pstate`].
    pub fn set_pstate(&mut self, lane: usize, target: PStateId) -> Result<()> {
        self.machines[lane].set_pstate(target)?;
        self.refresh_lane(lane);
        Ok(())
    }

    /// Sets one lane's clock-modulation level (see
    /// [`Machine::set_throttle`]), effective on the next tick.
    pub fn set_throttle(&mut self, lane: usize, level: ThrottleLevel) {
        self.machines[lane].set_throttle(level);
        self.refresh_lane(lane);
    }

    /// Offers a request to one serve-mode lane's queue (see
    /// [`Machine::offer_request`]). The queue is control-plane state that
    /// never enters the SoA arrays — serve lanes always tick through the
    /// scalar fallback, which reads the live queue — so no lane sync is
    /// needed on either side of the push.
    ///
    /// # Panics
    ///
    /// As [`Machine::offer_request`]: panics if the lane is a batch
    /// (program-driven) machine.
    pub fn offer_request(&mut self, lane: usize, request: Request) {
        self.machines[lane].offer_request(request);
    }

    /// Dissolves the batch back into its machines, each synced to its
    /// lane's final state.
    pub fn into_machines(mut self) -> Vec<Machine> {
        for lane in 0..self.machines.len() {
            self.write_back_lane(lane);
        }
        self.machines
    }

    /// Advances every lane by `dt`, bit-identically to calling
    /// [`Machine::tick`] on each machine.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn tick_all(&mut self, dt: Seconds) {
        assert!(dt.is_positive(), "tick duration must be positive");
        let n = self.machines.len();
        if n == 0 {
            return;
        }
        let dt_s = dt.seconds();
        if self.dt_s != dt_s {
            self.dt_s = dt_s;
            for lane in 0..n {
                self.refresh_lane(lane);
            }
        }

        // Eligibility sweep: a lane may take the vector path when its
        // derived constants are valid and the whole tick fits strictly
        // inside the current segment — decided with the same
        // `left / ips ≥ dt` division the scalar tick uses to clip at a
        // boundary, so the choice is bit-exact. Idle lanes carry sentinels
        // (`budget = MAX`, `ips = 1`) that always pass.
        let mut all_ok = true;
        for lane in 0..n {
            let ok = self.fast[lane]
                && (self.budget[lane] - self.phase_done[lane]) / self.ips[lane] >= dt_s;
            self.ok[lane] = ok;
            all_ok &= ok;
        }

        if all_ok {
            for (done, executed) in self.phase_done.iter_mut().zip(&self.executed) {
                *done += *executed;
            }
            for (counts, inc) in
                self.counts.chunks_exact_mut(n).zip(self.inc.chunks_exact(n))
            {
                for (count, inc) in counts.iter_mut().zip(inc) {
                    *count += *inc;
                }
            }
            for (energy, tick_energy) in self.energy_j.iter_mut().zip(&self.tick_energy_j) {
                *energy += *tick_energy;
            }
            for elapsed in &mut self.elapsed_s {
                *elapsed += dt_s;
            }
            for ((temp, target), decay) in
                self.temp_c.iter_mut().zip(&self.target_c).zip(&self.decay)
            {
                *temp = *target + (*temp - *target) * *decay;
            }
            // Boundary sweep: rare, so collect first and complete outside
            // the scan (no allocation unless a lane actually completes).
            let mut completed = Vec::new();
            for lane in 0..n {
                if self.budget[lane] - self.phase_done[lane] <= self.threshold[lane] {
                    completed.push(lane);
                }
            }
            for lane in completed {
                self.complete_lane(lane);
            }
        } else {
            for lane in 0..n {
                if self.ok[lane] {
                    self.fast_step_lane(lane, dt_s);
                } else {
                    self.fallback_tick(lane, dt);
                }
            }
        }
    }

    /// The vector path for one lane — the same updates `tick_all` applies
    /// across all lanes, used when only some lanes are eligible this tick.
    fn fast_step_lane(&mut self, lane: usize, dt_s: f64) {
        let n = self.machines.len();
        self.phase_done[lane] += self.executed[lane];
        for event in 0..EVENTS {
            self.counts[event * n + lane] += self.inc[event * n + lane];
        }
        self.energy_j[lane] += self.tick_energy_j[lane];
        self.elapsed_s[lane] += dt_s;
        self.temp_c[lane] =
            self.target_c[lane] + (self.temp_c[lane] - self.target_c[lane]) * self.decay[lane];
        if self.budget[lane] - self.phase_done[lane] <= self.threshold[lane] {
            self.complete_lane(lane);
        }
    }

    /// Scalar fallback for one tick: sync the lane into its machine, tick
    /// it exactly, and load the result back. Handles DVFS stalls, boundary
    /// crossings, and degenerate zero-rate segments.
    fn fallback_tick(&mut self, lane: usize, dt: Seconds) {
        self.write_back_lane(lane);
        self.machines[lane].tick(dt);
        self.load_lane(lane);
        self.refresh_lane(lane);
    }

    /// A lane's phase boundary fired: advance the machine's phase (which
    /// resamples the lane's execution jitter from its own noise stream and
    /// latches a completion time) and re-derive the lane's constants. The
    /// completion timestamp equals the scalar path's
    /// `elapsed + (dt - remaining)` with `remaining = 0`.
    fn complete_lane(&mut self, lane: usize) {
        let now = Seconds::new(self.elapsed_s[lane]);
        self.phase_done[lane] = 0.0;
        self.machines[lane].complete_phase(now);
        self.refresh_lane(lane);
    }

    /// Copies a machine's hot state into its lane's SoA slots.
    fn load_lane(&mut self, lane: usize) {
        let n = self.machines.len();
        let machine = &self.machines[lane];
        self.elapsed_s[lane] = machine.elapsed.seconds();
        self.energy_j[lane] = machine.true_energy.joules();
        self.phase_done[lane] = machine.phase_done_instructions;
        self.temp_c[lane] = machine.thermal.temperature().degrees();
        let raw = machine.counters.raw();
        for (event, count) in raw.iter().enumerate() {
            self.counts[event * n + lane] = *count;
        }
    }

    /// Writes a lane's SoA slots back into its machine.
    fn write_back_lane(&mut self, lane: usize) {
        let n = self.machines.len();
        let machine = &mut self.machines[lane];
        machine.elapsed = Seconds::new(self.elapsed_s[lane]);
        machine.true_energy = Joules::new(self.energy_j[lane]);
        machine.phase_done_instructions = self.phase_done[lane];
        machine.thermal.set_temperature(Celsius::new(self.temp_c[lane]));
        let raw = machine.counters.raw_mut();
        for (event, count) in raw.iter_mut().enumerate() {
            *count = self.counts[event * n + lane];
        }
    }

    /// Recomputes a lane's per-(segment × dt) constants. Every expression
    /// here is the one `Machine::tick` evaluates per tick with `adv = dt`,
    /// so reusing the results across ticks is bit-identical to recomputing
    /// them. Lanes this path cannot represent (mid-stall, zero-rate) are
    /// left `fast = false` and take the scalar fallback.
    fn refresh_lane(&mut self, lane: usize) {
        self.track_finished(lane);
        self.fast[lane] = false;
        let dt_s = self.dt_s;
        if !dt_s.is_finite() {
            // No cadence yet (before the first tick_all): nothing to derive.
            return;
        }
        let dt = Seconds::new(dt_s);

        let derived = {
            let machine = &mut self.machines[lane];
            let ps = *machine.operating_point();
            let thermal = *machine.thermal.params();
            let ambient = thermal.ambient.degrees();
            let resistance = thermal.resistance_c_per_w;
            let decay = (-dt.seconds() / thermal.time_constant.seconds()).exp();

            if machine.is_serving() {
                // Serve-mode lane: arrivals and request completions
                // subdivide any tick, and the queue lives on the machine
                // (not in SoA hot state), so every tick takes the scalar
                // fallback — write-back → `Machine::tick` → reload keeps
                // the queue exact.
                None
            } else if machine.transition_remaining.is_positive() {
                // Mid-DVFS-stall: sub-tick structure, scalar fallback.
                None
            } else if machine.finished() {
                // Idle lane: stays on the vector path via sentinels — the
                // eligibility division always passes, the boundary check
                // never fires, and the per-tick constants are the scalar
                // idle branch's expressions (cycles at full frequency,
                // idle power, zero work).
                let energy = machine.power_model.idle_power(&ps) * dt;
                let average_power = energy / dt;
                let mut inc = [0.0; EVENTS];
                inc[HardwareEvent::Cycles.index()] = ps.frequency().hz() * dt.seconds();
                Some(LaneDerived {
                    ips: 1.0,
                    budget: f64::MAX,
                    threshold: -1.0,
                    executed: 0.0,
                    tick_energy_j: energy.joules(),
                    target_c: ambient + average_power.watts() * resistance,
                    decay,
                    inc,
                })
            } else {
                let duty = machine.throttle().duty();
                let seg = machine.segment(&ps);
                let ips = seg.rates.instructions_per_second * machine.phase_jitter * duty;
                if ips <= 0.0 {
                    // Degenerate zero-rate segment: scalar fallback (which
                    // idles through the tick without NaN).
                    None
                } else {
                    let adv = dt;
                    let cycles = ps.frequency().hz() * (adv * duty).seconds();
                    let energy = seg.active_power * (adv * duty)
                        + seg.gated_power * (adv * (1.0 - duty));
                    let average_power = energy / dt;
                    let rates = &seg.rates;
                    let mut inc = [0.0; EVENTS];
                    inc[HardwareEvent::Cycles.index()] = cycles;
                    inc[HardwareEvent::InstructionsRetired.index()] = rates.ipc * cycles;
                    inc[HardwareEvent::InstructionsDecoded.index()] = rates.dpc * cycles;
                    inc[HardwareEvent::DcuMissOutstanding.index()] =
                        rates.dcu_outstanding_per_cycle * cycles;
                    inc[HardwareEvent::ResourceStalls.index()] =
                        rates.resource_stalls_per_cycle * cycles;
                    inc[HardwareEvent::MemoryRequests.index()] =
                        rates.memory_requests_per_cycle * cycles;
                    inc[HardwareEvent::L2Requests.index()] = rates.l2_requests_per_cycle * cycles;
                    inc[HardwareEvent::L1DMisses.index()] = rates.l1_misses_per_cycle * cycles;
                    inc[HardwareEvent::L2Misses.index()] = rates.l2_misses_per_cycle * cycles;
                    inc[HardwareEvent::FpOperations.index()] = rates.fp_per_cycle * cycles;
                    inc[HardwareEvent::BranchesRetired.index()] =
                        rates.branches_per_cycle * cycles;
                    inc[HardwareEvent::BranchMispredictions.index()] =
                        rates.mispredicts_per_cycle * cycles;
                    inc[HardwareEvent::HardwarePrefetches.index()] =
                        rates.prefetches_per_cycle * cycles;
                    inc[HardwareEvent::UopsRetired.index()] = rates.uops_per_cycle * cycles;
                    Some(LaneDerived {
                        ips,
                        budget: seg.phase_instructions,
                        threshold: seg.phase_instructions * crate::machine::PHASE_END_REL_EPS,
                        executed: ips * adv.seconds(),
                        tick_energy_j: energy.joules(),
                        target_c: ambient + average_power.watts() * resistance,
                        decay,
                        inc,
                    })
                }
            }
        };

        let Some(derived) = derived else {
            return;
        };
        let n = self.machines.len();
        self.ips[lane] = derived.ips;
        self.budget[lane] = derived.budget;
        self.threshold[lane] = derived.threshold;
        self.executed[lane] = derived.executed;
        self.tick_energy_j[lane] = derived.tick_energy_j;
        self.target_c[lane] = derived.target_c;
        self.decay[lane] = derived.decay;
        for (event, inc) in derived.inc.iter().enumerate() {
            self.inc[event * n + lane] = *inc;
        }
        self.fast[lane] = true;
    }

    /// Counts a lane once its machine has finished (a program never
    /// un-finishes: its phase index only grows).
    fn track_finished(&mut self, lane: usize) {
        if !self.finished[lane] && self.machines[lane].finished() {
            self.finished[lane] = true;
            self.finished_lanes += 1;
        }
    }

    /// Convenience: a lane's counter snapshot without borrowing the whole
    /// machine (reads straight from the SoA arrays).
    pub fn counter_snapshot(&self, lane: usize) -> CounterSnapshot {
        let n = self.machines.len();
        let mut counts = [0.0; EVENTS];
        for (event, count) in counts.iter_mut().enumerate() {
            *count = self.counts[event * n + lane];
        }
        CounterSnapshot::from_raw(counts)
    }

    /// One of a lane's cumulative counters, read straight from the SoA
    /// arrays (no sync, and none of the other counters gathered).
    pub fn counter(&self, lane: usize, event: HardwareEvent) -> f64 {
        self.counts[event.index() * self.machines.len() + lane]
    }

    /// A lane's accumulated true energy, read straight from the SoA arrays
    /// (no sync).
    pub fn energy(&self, lane: usize) -> Joules {
        Joules::new(self.energy_j[lane])
    }

    /// A lane's elapsed simulated time, read straight from the SoA arrays
    /// (no sync).
    pub fn elapsed(&self, lane: usize) -> Seconds {
        Seconds::new(self.elapsed_s[lane])
    }
}

/// Exclusive access to one lane's machine, handed out by
/// [`MachineBatch::lane_mut`]. On entry the lane's SoA state has been
/// synced into the machine; on drop the machine's state is loaded back
/// into the SoA arrays and the lane's derived per-tick constants are
/// recomputed, so a manual `tick`/`fast_forward`/actuation through the
/// guard leaves the batch exactly as if the machine had always been
/// stepped in place.
#[derive(Debug)]
pub struct LaneGuard<'a> {
    batch: &'a mut MachineBatch,
    lane: usize,
}

impl std::ops::Deref for LaneGuard<'_> {
    type Target = Machine;

    fn deref(&self) -> &Machine {
        &self.batch.machines[self.lane]
    }
}

impl std::ops::DerefMut for LaneGuard<'_> {
    fn deref_mut(&mut self) -> &mut Machine {
        &mut self.batch.machines[self.lane]
    }
}

impl Drop for LaneGuard<'_> {
    fn drop(&mut self) {
        self.batch.load_lane(self.lane);
        self.batch.refresh_lane(self.lane);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::phase::PhaseDescriptor;
    use crate::program::PhaseProgram;

    fn program(name: &str, instructions: u64, core_cpi: f64) -> PhaseProgram {
        let a = PhaseDescriptor::builder(format!("{name}-a"))
            .instructions(instructions)
            .core_cpi(core_cpi)
            .mispredict_rate(0.0)
            .build()
            .unwrap();
        let b = PhaseDescriptor::builder(format!("{name}-b"))
            .instructions(instructions)
            .core_cpi(core_cpi * 2.0)
            .mispredict_rate(0.0)
            .build()
            .unwrap();
        PhaseProgram::new(name, vec![a, b]).unwrap()
    }

    fn lanes() -> Vec<Machine> {
        vec![
            Machine::new(MachineConfig::pentium_m_755(11), program("p0", 30_000_000, 1.0)),
            Machine::new(MachineConfig::pentium_m_755(12), program("p1", 60_000_000, 0.7)),
            Machine::new(MachineConfig::pentium_m_755(13), program("p2", 15_000_000, 2.0)),
        ]
    }

    fn assert_lane_matches(batch: &mut MachineBatch, lane: usize, scalar: &Machine) {
        let machine = batch.sync_lane(lane);
        assert_eq!(machine.counter_snapshot(), scalar.counter_snapshot(), "lane {lane}");
        assert_eq!(machine.true_energy(), scalar.true_energy(), "lane {lane}");
        assert_eq!(machine.elapsed(), scalar.elapsed(), "lane {lane}");
        assert_eq!(machine.completion_time(), scalar.completion_time(), "lane {lane}");
        assert_eq!(machine.temperature(), scalar.temperature(), "lane {lane}");
        assert_eq!(
            machine.instantaneous_power(),
            scalar.instantaneous_power(),
            "lane {lane}"
        );
        assert_eq!(machine.finished(), scalar.finished(), "lane {lane}");
    }

    #[test]
    fn fixed_cadence_lockstep_is_bit_identical_to_scalar() {
        let mut scalars = lanes();
        let mut batch = MachineBatch::new(lanes());
        let dt = Seconds::from_millis(10.0);
        for step in 0..600 {
            if step == 100 {
                for (lane, scalar) in scalars.iter_mut().enumerate() {
                    scalar.set_pstate(PStateId::new(2)).unwrap();
                    batch.set_pstate(lane, PStateId::new(2)).unwrap();
                }
            }
            if step == 200 {
                let level = ThrottleLevel::new(5).unwrap();
                for (lane, scalar) in scalars.iter_mut().enumerate() {
                    scalar.set_throttle(level);
                    batch.set_throttle(lane, level);
                }
            }
            for scalar in &mut scalars {
                scalar.tick(dt);
            }
            batch.tick_all(dt);
        }
        for (lane, scalar) in scalars.iter().enumerate() {
            assert_lane_matches(&mut batch, lane, scalar);
        }
    }

    #[test]
    fn lanes_finishing_at_different_times_stay_bit_identical() {
        // Budgets spanning 4× finish many hundreds of ticks apart; finished
        // lanes idle on the vector path while the rest keep executing, and
        // each lane's completion time must equal its scalar twin's exactly.
        let mut scalars = lanes();
        let mut batch = MachineBatch::new(lanes());
        let dt = Seconds::from_millis(10.0);
        let mut guard = 0;
        while !batch.all_finished() && guard < 20_000 {
            for scalar in &mut scalars {
                scalar.tick(dt);
            }
            batch.tick_all(dt);
            guard += 1;
        }
        assert!(batch.all_finished(), "batch must finish");
        let times: Vec<_> =
            scalars.iter().map(|scalar| scalar.completion_time().unwrap()).collect();
        assert!(times[0] != times[1] && times[1] != times[2], "staggered finishes: {times:?}");
        for (lane, scalar) in scalars.iter().enumerate() {
            assert_lane_matches(&mut batch, lane, scalar);
        }
    }

    #[test]
    fn lane_is_read_only_and_control_plane_live() {
        let mut batch = MachineBatch::new(lanes());
        batch.tick_all(Seconds::from_millis(10.0));
        // Control-plane state (p-state, program position) is live on the
        // unsynced machine; the hot accumulators are authoritative in the
        // SoA arrays instead.
        batch.set_pstate(0, PStateId::new(3)).unwrap();
        assert_eq!(batch.lane(0).pstate(), PStateId::new(3));
        assert!(!batch.lane(0).finished());
        assert_eq!(batch.elapsed(0), Seconds::from_millis(10.0));
        assert!(batch.energy(0).joules() > 0.0);
        assert_eq!(
            batch.counter_snapshot(0),
            batch.sync_lane(0).counter_snapshot(),
            "sync_lane reconciles the machine with the SoA view"
        );
    }

    #[test]
    fn lane_mut_fast_forward_stays_bit_identical_to_scalar() {
        // Mixed driving: batch ticks, then a per-lane fast_forward span
        // through the lane_mut guard, then more batch ticks — every step
        // mirrored on scalar twins. The guard's drop-time reload must leave
        // the batch exactly as if the machine had been stepped in place.
        let mut scalars = lanes();
        let mut batch = MachineBatch::new(lanes());
        let dt = Seconds::from_millis(10.0);
        for _ in 0..20 {
            for scalar in &mut scalars {
                scalar.tick(dt);
            }
            batch.tick_all(dt);
        }
        let span = Seconds::from_millis(250.0);
        for (lane, scalar) in scalars.iter_mut().enumerate() {
            let mut remaining = span;
            while remaining.is_positive() {
                let advanced = scalar.fast_forward(remaining).unwrap().advanced;
                remaining = (remaining - advanced).clamp_non_negative();
            }
            let mut guard = batch.lane_mut(lane);
            let mut remaining = span;
            while remaining.is_positive() {
                let advanced = guard.fast_forward(remaining).unwrap().advanced;
                remaining = (remaining - advanced).clamp_non_negative();
            }
        }
        for _ in 0..20 {
            for scalar in &mut scalars {
                scalar.tick(dt);
            }
            batch.tick_all(dt);
        }
        for (lane, scalar) in scalars.iter().enumerate() {
            assert_lane_matches(&mut batch, lane, scalar);
        }
    }

    #[test]
    fn into_machines_round_trips_final_state() {
        let mut scalars = lanes();
        let mut batch = MachineBatch::new(lanes());
        let dt = Seconds::from_millis(10.0);
        for _ in 0..50 {
            for scalar in &mut scalars {
                scalar.tick(dt);
            }
            batch.tick_all(dt);
        }
        let unbatched = batch.into_machines();
        for (scalar, machine) in scalars.iter().zip(&unbatched) {
            assert_eq!(machine.true_energy(), scalar.true_energy());
            assert_eq!(machine.elapsed(), scalar.elapsed());
            assert_eq!(machine.counter_snapshot(), scalar.counter_snapshot());
        }
    }

    #[test]
    fn counter_snapshot_reads_soa_state_directly() {
        let mut batch = MachineBatch::new(lanes());
        batch.tick_all(Seconds::from_millis(10.0));
        for lane in 0..batch.len() {
            let soa = batch.counter_snapshot(lane);
            for event in HardwareEvent::ALL {
                assert_eq!(batch.counter(lane, event).to_bits(), soa.get(event).to_bits());
            }
            let synced = batch.sync_lane(lane).counter_snapshot();
            assert_eq!(soa, synced);
        }
    }

    #[test]
    fn lanes_finished_before_batching_count_as_finished() {
        let mut done = lanes().remove(2);
        while !done.finished() {
            done.tick(Seconds::from_millis(10.0));
        }
        assert!(MachineBatch::new(vec![done.clone()]).all_finished());
        assert!(!MachineBatch::new(vec![done, lanes().remove(0)]).all_finished());
        assert!(MachineBatch::new(Vec::new()).all_finished(), "vacuously finished");
    }

    mod batch_bit_identity {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Driving a batch and per-machine scalar stepping through an
            /// identical script of random tick sizes, p-state changes, and
            /// throttle levels leaves every lane bit-identical to its
            /// scalar twin at every step — the batch analogue of the
            /// `tick` vs `tick_uncached` memo oracle.
            #[test]
            fn batched_lanes_are_bit_identical_to_scalar_stepping(
                seed in 0u64..256,
                script in prop::collection::vec((1u32..20_000, 0u8..10, 1u8..9, 0u8..8), 1..40),
            ) {
                let make = |salt: u64| {
                    vec![
                        Machine::new(
                            MachineConfig::pentium_m_755(seed ^ salt),
                            program("q0", 20_000_000, 1.0),
                        ),
                        Machine::new(
                            MachineConfig::pentium_m_755(seed.wrapping_add(7) ^ salt),
                            program("q1", 40_000_000, 0.8),
                        ),
                    ]
                };
                let mut scalars = make(0);
                let mut batch = MachineBatch::new(make(0));
                for (us, ps, level, skip) in script {
                    if ps < 8 {
                        for (lane, scalar) in scalars.iter_mut().enumerate() {
                            scalar.set_pstate(PStateId::new(ps as usize)).unwrap();
                            batch.set_pstate(lane, PStateId::new(ps as usize)).unwrap();
                        }
                    }
                    let level = ThrottleLevel::new(level).unwrap();
                    for (lane, scalar) in scalars.iter_mut().enumerate() {
                        scalar.set_throttle(level);
                        batch.set_throttle(lane, level);
                    }
                    let dt = Seconds::from_micros(f64::from(us));
                    if skip == 0 {
                        // Fast-forward lane 0 through the guard, which can
                        // finish a lane outside `tick_all`.
                        let span = dt * 8.0;
                        let advanced = scalars[0].fast_forward(span).unwrap().advanced;
                        let batched = batch.lane_mut(0).fast_forward(span).unwrap().advanced;
                        prop_assert_eq!(batched, advanced);
                    } else {
                        for scalar in &mut scalars {
                            scalar.tick(dt);
                        }
                        batch.tick_all(dt);
                    }
                    prop_assert_eq!(batch.all_finished(), scalars.iter().all(Machine::finished));
                    prop_assert_eq!(
                        batch.all_finished(),
                        (0..batch.len()).all(|lane| batch.lane(lane).finished())
                    );
                    for (lane, scalar) in scalars.iter().enumerate() {
                        let machine = batch.sync_lane(lane);
                        prop_assert_eq!(machine.counter_snapshot(), scalar.counter_snapshot());
                        prop_assert_eq!(machine.true_energy(), scalar.true_energy());
                        prop_assert_eq!(machine.elapsed(), scalar.elapsed());
                        prop_assert_eq!(machine.completion_time(), scalar.completion_time());
                        prop_assert_eq!(machine.temperature(), scalar.temperature());
                        prop_assert_eq!(
                            machine.instantaneous_power(),
                            scalar.instantaneous_power()
                        );
                    }
                }
            }
        }
    }
}
