//! Measured-power feedback extension to PM (the paper's future-work note).
//!
//! For workloads like `galgel` whose activity falls outside the model's
//! training set, the paper suggests "PM could adapt model coefficients on
//! the fly or scale measured power for p-state changes". [`FeedbackPm`]
//! implements the scaling variant: it tracks the exponentially-weighted
//! ratio of *measured* to *estimated* power at the current p-state, and
//! multiplies every estimate by that correction before comparing against
//! the limit. Workloads the static model underestimates are throttled
//! harder; well-modelled workloads are unaffected.

use aapm_platform::events::HardwareEvent;
use aapm_platform::pstate::PStateId;
use aapm_platform::units::Watts;
use aapm_models::power_model::PowerModel;

use crate::governor::{Governor, GovernorCommand, SampleContext};
use crate::limits::PowerLimit;
use crate::pm::{PerformanceMaximizer, PmConfig};

/// PM with measured-power feedback correction.
#[derive(Debug, Clone)]
pub struct FeedbackPm {
    inner: PerformanceMaximizer,
    /// EWMA of measured/estimated power at the current state.
    correction: f64,
    /// EWMA smoothing factor per 10 ms sample.
    smoothing: f64,
    /// Consecutive raise-agreeing samples (PM's asymmetric policy).
    raise_streak: usize,
    /// Most recent DPC taken from a fresh counter sample.
    last_dpc: Option<f64>,
    /// Consecutive stale counter samples seen.
    stale_streak: usize,
}

impl FeedbackPm {
    /// Creates feedback-PM with the default guardband, raise window, and a
    /// smoothing factor of 0.2 per sample.
    pub fn new(model: PowerModel, limit: PowerLimit) -> Self {
        FeedbackPm {
            inner: PerformanceMaximizer::with_config(model, limit, PmConfig::default()),
            correction: 1.0,
            smoothing: 0.2,
            raise_streak: 0,
            last_dpc: None,
            stale_streak: 0,
        }
    }

    /// The current correction factor (measured / estimated, smoothed).
    pub fn correction(&self) -> f64 {
        self.correction
    }

    fn update_correction(&mut self, ctx: &SampleContext<'_>) {
        let Some(measured) = ctx.power else { return };
        // A stale counter sample pairs an extrapolated DPC with a real
        // measurement; feeding that ratio into the EWMA would corrupt the
        // correction, so hold it until fresh counters return.
        if !ctx.counters.is_fresh() {
            return;
        }
        let dpc = ctx.counters.dpc().unwrap_or(0.0);
        let Ok(estimate) = self.inner.model().estimate(ctx.current, dpc) else { return };
        if estimate.watts() <= 0.1 || measured.power.watts() <= 0.1 {
            return;
        }
        let ratio = (measured.power.watts() / estimate.watts()).clamp(0.5, 2.0);
        self.correction += self.smoothing * (ratio - self.correction);
    }

    /// Corrected estimate at `target`: the static-model estimate scaled by
    /// the observed correction factor (guardband applied by the inner PM).
    pub fn corrected_estimate(
        &self,
        ctx: &SampleContext<'_>,
        dpc: f64,
        target: PStateId,
    ) -> Option<Watts> {
        let raw = self.inner.estimate_at(ctx, dpc, target)?;
        Some(raw * self.correction)
    }
}

impl Governor for FeedbackPm {
    fn name(&self) -> &str {
        "pm-feedback"
    }

    fn events(&self) -> Vec<HardwareEvent> {
        vec![HardwareEvent::InstructionsDecoded]
    }

    fn decide(&mut self, ctx: &SampleContext<'_>) -> PStateId {
        self.update_correction(ctx);
        // Same stale-counter degradation as plain PM: hold the last fresh
        // DPC for a bounded window (lower-only), then fail safe downward.
        let dpc = if ctx.counters.is_fresh() {
            self.stale_streak = 0;
            let dpc = ctx.counters.dpc().unwrap_or(0.0);
            self.last_dpc = Some(dpc);
            dpc
        } else {
            self.stale_streak += 1;
            match self.last_dpc {
                Some(dpc) if self.stale_streak <= self.inner.config().hold_samples => {
                    let candidate = self.candidate(ctx, dpc);
                    if candidate < ctx.current {
                        self.raise_streak = 0;
                        return candidate;
                    }
                    return ctx.current;
                }
                _ => {
                    self.raise_streak = 0;
                    return ctx.table.next_lower(ctx.current).unwrap_or(ctx.table.lowest());
                }
            }
        };
        // Same asymmetric control as PM, but on corrected estimates.
        let candidate = self.candidate(ctx, dpc);
        // Reuse the inner PM's streak bookkeeping by delegating the
        // raise/lower policy: lower immediately, raise only on a full
        // streak. The inner PM's own candidate computation is bypassed.
        self.apply_asymmetric_policy(ctx.current, candidate)
    }

    fn command(&mut self, command: GovernorCommand) {
        self.inner.command(command);
    }
}

impl FeedbackPm {
    /// Highest state whose corrected estimate fits under the limit (the
    /// lowest state if none fits).
    fn candidate(&self, ctx: &SampleContext<'_>, dpc: f64) -> PStateId {
        let limit = self.inner.limit().watts();
        for (id, _) in ctx.table.iter_descending() {
            if let Some(estimate) = self.corrected_estimate(ctx, dpc, id) {
                if estimate <= limit {
                    return id;
                }
            }
        }
        ctx.table.lowest()
    }

    /// PM's lower-immediately / raise-after-streak policy.
    fn apply_asymmetric_policy(&mut self, current: PStateId, candidate: PStateId) -> PStateId {
        // Track the streak locally (the inner PM's streak is private to its
        // own decide path).
        if candidate < current {
            self.raise_streak = 0;
            candidate
        } else if candidate > current {
            self.raise_streak += 1;
            if self.raise_streak >= 10 {
                self.raise_streak = 0;
                candidate
            } else {
                current
            }
        } else {
            self.raise_streak = 0;
            current
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aapm_platform::pstate::PStateTable;
    use aapm_platform::units::Seconds;
    use aapm_telemetry::daq::PowerSample;
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

    fn power(watts: f64) -> PowerSample {
        PowerSample {
            start: Seconds::ZERO,
            end: Seconds::from_millis(10.0),
            power: Watts::new(watts),
            true_power: Watts::new(watts),
        }
    }

    #[test]
    fn correction_rises_when_model_underestimates() {
        let table = PStateTable::pentium_m_755();
        let mut g = FeedbackPm::new(PowerModel::paper_table_ii(), PowerLimit::new(17.5).unwrap());
        // Model at P7, DPC 1.0 → 15.04 W; measured 18 W → ratio ≈ 1.2.
        let s = sample(1.0);
        let p = power(18.0);
        for _ in 0..50 {
            let ctx = SampleContext {
                counters: &s,
                power: Some(&p), temperature: None,
                current: PStateId::new(7),
                table: &table,
                queue: None,
            };
            g.decide(&ctx);
        }
        assert!(g.correction() > 1.15, "correction {} should approach 1.2", g.correction());
    }

    #[test]
    fn underestimated_workload_gets_throttled_harder_than_plain_pm() {
        let table = PStateTable::pentium_m_755();
        let mut g = FeedbackPm::new(PowerModel::paper_table_ii(), PowerLimit::new(15.5).unwrap());
        let s = sample(1.0);
        let hot = power(18.0);
        // Warm the correction up, then check the decision.
        let mut chosen = PStateId::new(7);
        for _ in 0..50 {
            let ctx = SampleContext {
                counters: &s,
                power: Some(&hot), temperature: None,
                current: chosen,
                table: &table,
                queue: None,
            };
            chosen = g.decide(&ctx);
        }
        // Plain PM with the same model would keep P7 (est 15.04+0.5 ≤ 15.5
        // is false… est 15.54 > 15.5 → P6). Feedback must be at least as low.
        assert!(chosen < PStateId::new(7), "feedback PM must throttle, chose {chosen}");
    }

    #[test]
    fn well_modelled_workload_keeps_correction_near_one() {
        let table = PStateTable::pentium_m_755();
        let mut g = FeedbackPm::new(PowerModel::paper_table_ii(), PowerLimit::new(30.0).unwrap());
        let s = sample(1.0);
        let accurate = power(15.04); // exactly the model estimate at P7
        for _ in 0..50 {
            let ctx = SampleContext {
                counters: &s,
                power: Some(&accurate), temperature: None,
                current: PStateId::new(7),
                table: &table,
                queue: None,
            };
            g.decide(&ctx);
        }
        assert!((g.correction() - 1.0).abs() < 0.05, "correction {}", g.correction());
    }

    #[test]
    fn missing_power_sample_leaves_correction_unchanged() {
        let table = PStateTable::pentium_m_755();
        let mut g = FeedbackPm::new(PowerModel::paper_table_ii(), PowerLimit::new(17.5).unwrap());
        let s = sample(1.0);
        let ctx = SampleContext { counters: &s, power: None, temperature: None, current: PStateId::new(7), table: &table, queue: None };
        g.decide(&ctx);
        assert_eq!(g.correction(), 1.0);
    }
}
