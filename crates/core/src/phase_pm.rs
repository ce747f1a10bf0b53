//! PhasePm: PM with phase-aware raise decisions.
//!
//! Plain PM waits ten agreeing samples before raising frequency, which
//! protects against noise but costs 100 ms of performance after every
//! genuine drop in activity (e.g. each time `ammp` enters a memory-bound
//! region under a tight limit). `PhasePm` feeds the DPC stream through a
//! [`PhaseDetector`]: when a *phase change* is detected — a sustained-level
//! shift, not a noisy sample — the raise window is bypassed and the new
//! best p-state is taken immediately. Lowering stays immediate, as in PM.
//!
//! The `ablation-phase` experiment quantifies the trade: faster recovery on
//! phase transitions against the extra violations eager raising risks on
//! deceptive workloads like `galgel`.

use aapm_platform::events::HardwareEvent;
use aapm_platform::pstate::PStateId;
use aapm_models::phase_detect::PhaseDetector;
use aapm_models::power_model::PowerModel;

use crate::governor::{Governor, GovernorCommand, SampleContext};
use crate::layer::GovernorLayer;
use crate::limits::PowerLimit;
use crate::pm::{PerformanceMaximizer, PmConfig};

/// PM with phase-change-triggered immediate raises.
#[derive(Debug, Clone)]
pub struct PhasePm {
    inner: PerformanceMaximizer,
    detector: PhaseDetector,
    raise_streak: usize,
    raise_samples: usize,
}

impl PhasePm {
    /// Creates phase-aware PM with the DPC phase detector and the default
    /// PM tunables.
    pub fn new(model: PowerModel, limit: PowerLimit) -> Self {
        let config = PmConfig::default();
        let raise_samples = config.raise_samples;
        PhasePm {
            inner: PerformanceMaximizer::with_config(model, limit, config),
            detector: PhaseDetector::for_dpc(),
            raise_streak: 0,
            raise_samples,
        }
    }

    /// The active power limit.
    pub fn limit(&self) -> PowerLimit {
        self.inner.limit()
    }
}

impl GovernorLayer for PhasePm {
    fn layer_name(&self) -> &str {
        "pm-phase"
    }

    fn inner_governor(&self) -> &dyn Governor {
        &self.inner
    }

    fn inner_governor_mut(&mut self) -> &mut dyn Governor {
        &mut self.inner
    }

    fn layer_events(&self) -> Vec<HardwareEvent> {
        vec![HardwareEvent::InstructionsDecoded]
    }

    fn layer_decide(&mut self, ctx: &SampleContext<'_>) -> PStateId {
        let dpc = ctx.counters.dpc().unwrap_or(0.0);
        let phase_changed = self.detector.observe(dpc);
        let candidate = self.inner.scan(ctx, dpc).candidate;
        if candidate < ctx.current {
            self.raise_streak = 0;
            candidate
        } else if candidate > ctx.current {
            if phase_changed {
                // A confirmed level shift: re-evaluate without the window.
                self.raise_streak = 0;
                return candidate;
            }
            self.raise_streak += 1;
            if self.raise_streak >= self.raise_samples {
                self.raise_streak = 0;
                candidate
            } else {
                ctx.current
            }
        } else {
            self.raise_streak = 0;
            ctx.current
        }
    }

    fn layer_command(&mut self, command: GovernorCommand) {
        self.inner.command(command);
        self.detector.reset();
        self.raise_streak = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aapm_platform::pstate::PStateTable;
    use aapm_platform::units::Seconds;
    use aapm_telemetry::pmc::CounterSample;

    fn sample(dpc: f64) -> CounterSample {
        let cycles = 20e6;
        CounterSample {
            start: Seconds::ZERO,
            end: Seconds::from_millis(10.0),
            cycles,
            counts: vec![(HardwareEvent::InstructionsDecoded, dpc * cycles, true)],
        }
    }

    fn decide(g: &mut PhasePm, table: &PStateTable, current: usize, dpc: f64) -> PStateId {
        let s = sample(dpc);
        let ctx = SampleContext {
            counters: &s,
            power: None,
            temperature: None,
            current: PStateId::new(current),
            table,
            queue: None,
        };
        g.decide(&ctx)
    }

    fn governor(limit: f64) -> PhasePm {
        PhasePm::new(PowerModel::paper_table_ii(), PowerLimit::new(limit).unwrap())
    }

    #[test]
    fn steady_stream_still_waits_the_full_window() {
        let table = PStateTable::pentium_m_755();
        let mut g = governor(30.0);
        // Establish a steady baseline at the same DPC the raises will see:
        // no phase change fires, so the 10-sample window applies.
        decide(&mut g, &table, 2, 0.5);
        for i in 0..8 {
            assert_eq!(decide(&mut g, &table, 2, 0.5), PStateId::new(2), "sample {i}");
        }
        assert!(decide(&mut g, &table, 2, 0.5) > PStateId::new(2), "10th sample raises");
    }

    #[test]
    fn phase_change_raises_immediately() {
        let table = PStateTable::pentium_m_755();
        let mut g = governor(30.0);
        // Steady hot-ish phase at DPC 3.2 keeps a low state.
        for _ in 0..5 {
            decide(&mut g, &table, 2, 3.2);
        }
        // The workload drops to a cool phase: one sample suffices.
        let chosen = decide(&mut g, &table, 2, 0.4);
        assert!(chosen > PStateId::new(2), "phase change bypasses the window, got {chosen}");
    }

    #[test]
    fn lowering_remains_immediate() {
        let table = PStateTable::pentium_m_755();
        let mut g = governor(14.0);
        for _ in 0..3 {
            decide(&mut g, &table, 7, 0.3);
        }
        let chosen = decide(&mut g, &table, 7, 3.0);
        assert!(chosen < PStateId::new(7));
    }

    #[test]
    fn limit_change_resets_detector_and_streak() {
        let table = PStateTable::pentium_m_755();
        let mut g = governor(30.0);
        for _ in 0..5 {
            decide(&mut g, &table, 2, 0.5);
        }
        g.command(GovernorCommand::SetPowerLimit(PowerLimit::new(20.0).unwrap()));
        // After the reset the next sample re-baselines: no phase-change
        // bypass, and the streak starts over.
        for i in 0..9 {
            assert_eq!(decide(&mut g, &table, 2, 0.5), PStateId::new(2), "sample {i}");
        }
        assert!(decide(&mut g, &table, 2, 0.5) > PStateId::new(2));
    }
}
