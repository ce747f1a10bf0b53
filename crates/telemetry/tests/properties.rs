//! Property-based tests of the telemetry layer.

use aapm_platform::pstate::PStateId;
use aapm_platform::units::{Seconds, Watts};
use aapm_telemetry::stats::{median, nan_last_cmp, percentile, summarize};
use aapm_telemetry::trace::{RunTrace, TraceRecord};
use aapm_telemetry::window::MovingWindow;
use proptest::prelude::*;

/// Any f64, including the non-finite values the stats helpers must survive
/// (two fifths of draws are NaN of either sign or ±inf).
fn any_sample() -> impl Strategy<Value = f64> {
    (0usize..10, -50.0f64..50.0).prop_map(|(kind, v)| match kind {
        0 => f64::NAN,
        3 => f64::from_bits(0xfff8_0000_0000_0000),
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => v,
    })
}

/// Window inputs that stress the sorted mirror: a handful of finite keys
/// (so evictions hit duplicates), `±0.0`, `±inf`, and NaN of both signs.
fn window_sample() -> impl Strategy<Value = f64> {
    prop_oneof![
        6 => (-3i32..4).prop_map(|k| f64::from(k) * 0.25),
        2 => -1.0e3f64..1.0e3,
        1 => prop_oneof![Just(0.0), Just(-0.0)],
        1 => prop_oneof![Just(f64::INFINITY), Just(f64::NEG_INFINITY)],
        1 => prop_oneof![Just(f64::NAN), Just(f64::from_bits(0xfff8_0000_0000_0000))],
    ]
}

const WINDOW_RANKS: [f64; 10] = [0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0, -1.0, 101.0, f64::NAN];

fn assert_window_matches_stats(window: &MovingWindow) {
    let held: Vec<f64> = window.iter().collect();
    for p in WINDOW_RANKS {
        assert_eq!(
            window.percentile(p).map(f64::to_bits),
            percentile(&held, p).map(f64::to_bits),
            "p{p} over {held:?}"
        );
    }
}

fn trace_from(powers: &[f64]) -> RunTrace {
    let mut trace = RunTrace::new(Seconds::from_millis(10.0));
    for (i, &p) in powers.iter().enumerate() {
        trace.push(TraceRecord {
            time: Seconds::from_millis(10.0 * (i + 1) as f64),
            power: Watts::new(p),
            true_power: Watts::new(p),
            pstate: PStateId::new(i % 8),
            ipc: None,
            dpc: None,
        });
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The order-statistic window agrees bit for bit with sorting its
    /// contents from scratch, after every push and after a clear, over
    /// heavy duplicates, signed zeros, infinities and NaNs of both signs.
    #[test]
    fn window_percentile_matches_stats(
        capacity in prop_oneof![Just(256usize), 1usize..300],
        values in prop::collection::vec(window_sample(), 0..700),
        clear_at in 0usize..700,
    ) {
        let mut window = MovingWindow::new(capacity);
        assert_window_matches_stats(&window);
        for (i, &v) in values.iter().enumerate() {
            if i == clear_at {
                window.clear();
                prop_assert!(window.is_empty());
                assert_window_matches_stats(&window);
            }
            window.push(v);
            prop_assert!(window.len() <= capacity);
            assert_window_matches_stats(&window);
        }
    }

    /// The window retains exactly the most recent `capacity` values.
    #[test]
    fn window_retains_most_recent(
        capacity in 1usize..10,
        values in prop::collection::vec(-100.0f64..100.0, 1..60),
    ) {
        let mut window = MovingWindow::new(capacity);
        for &v in &values {
            window.push(v);
        }
        let expected: Vec<f64> =
            values.iter().rev().take(capacity).rev().copied().collect();
        prop_assert_eq!(window.iter().collect::<Vec<_>>(), expected);
    }

    /// Trace energy equals the sum of sample powers times the interval, and
    /// the mean power lies within the sample range.
    #[test]
    fn trace_energy_additivity(powers in prop::collection::vec(0.0f64..25.0, 1..300)) {
        let trace = trace_from(&powers);
        let expected: f64 = powers.iter().map(|p| p * 0.01).sum();
        prop_assert!((trace.measured_energy().joules() - expected).abs() < 1e-9);
        let mean = trace.mean_power().unwrap().watts();
        let max = trace.max_power().unwrap().watts();
        prop_assert!(mean <= max + 1e-12);
    }

    /// Violation fraction is a probability, zero when the limit clears the
    /// max sample, one when the limit is below the min window average.
    #[test]
    fn violation_fraction_bounds(
        powers in prop::collection::vec(1.0f64..25.0, 10..200),
        limit in 0.5f64..30.0,
        window in 1usize..15,
    ) {
        let trace = trace_from(&powers);
        let fraction = trace.violation_fraction(Watts::new(limit), window);
        prop_assert!((0.0..=1.0).contains(&fraction));
        let max = powers.iter().cloned().fold(f64::MIN, f64::max);
        let min = powers.iter().cloned().fold(f64::MAX, f64::min);
        if limit >= max {
            prop_assert_eq!(fraction, 0.0);
        }
        if limit < min && powers.len() >= window {
            prop_assert_eq!(fraction, 1.0);
        }
    }

    /// Moving averages are bounded by the sample extremes and there are
    /// exactly `n − window + 1` of them.
    #[test]
    fn moving_average_count_and_bounds(
        powers in prop::collection::vec(0.0f64..25.0, 1..200),
        window in 1usize..20,
    ) {
        let trace = trace_from(&powers);
        let averages = trace.moving_average_power(window);
        if powers.len() >= window {
            prop_assert_eq!(averages.len(), powers.len() - window + 1);
            let max = powers.iter().cloned().fold(f64::MIN, f64::max);
            let min = powers.iter().cloned().fold(f64::MAX, f64::min);
            for a in averages {
                prop_assert!(a >= min - 1e-12 && a <= max + 1e-12);
            }
        } else {
            prop_assert!(averages.is_empty());
        }
    }

    /// P-state residency fractions sum to one and each lies in (0, 1].
    #[test]
    fn residency_is_a_distribution(powers in prop::collection::vec(1.0f64..25.0, 1..100)) {
        let trace = trace_from(&powers);
        let residency = trace.pstate_residency();
        let total: f64 = residency.iter().map(|(_, f)| f).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        for (_, f) in residency {
            prop_assert!(f > 0.0 && f <= 1.0);
        }
    }

    /// Median and percentiles are order statistics: bounded by min/max and
    /// monotone in p.
    #[test]
    fn percentiles_are_order_statistics(values in prop::collection::vec(-50.0f64..50.0, 1..100)) {
        let min = values.iter().cloned().fold(f64::MAX, f64::min);
        let max = values.iter().cloned().fold(f64::MIN, f64::max);
        let med = median(&values).unwrap();
        prop_assert!(med >= min - 1e-12 && med <= max + 1e-12);
        let mut last = min;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0] {
            let value = percentile(&values, p).unwrap();
            prop_assert!(value >= last - 1e-12);
            last = value;
        }
        let summary = summarize(&values).unwrap();
        prop_assert!(summary.mean >= min - 1e-12 && summary.mean <= max + 1e-12);
        prop_assert!(summary.std_dev >= 0.0);
    }

    /// The stats helpers are total over *any* floats: NaN and ±inf never
    /// panic, and the exact-rank percentiles return the NaN-last
    /// extremes instead of manufacturing `inf * 0` NaNs.
    #[test]
    fn median_and_percentile_total_over_non_finite(
        values in prop::collection::vec(any_sample(), 1..60),
        p in 0.0f64..100.0,
    ) {
        prop_assert!(median(&values).is_some());
        prop_assert!(percentile(&values, p).is_some());
        let mut sorted = values.clone();
        sorted.sort_by(nan_last_cmp);
        let lo = percentile(&values, 0.0).unwrap();
        let hi = percentile(&values, 100.0).unwrap();
        prop_assert_eq!(lo.total_cmp(&sorted[0]), std::cmp::Ordering::Equal);
        prop_assert_eq!(
            hi.total_cmp(&sorted[sorted.len() - 1]),
            std::cmp::Ordering::Equal
        );
        // All-finite input keeps the helpers finite and in range.
        if values.iter().all(|v| v.is_finite()) {
            let med = median(&values).unwrap();
            prop_assert!(med.is_finite());
            prop_assert!((sorted[0]..=sorted[sorted.len() - 1]).contains(&med));
            prop_assert!(percentile(&values, p).unwrap().is_finite());
        }
    }
}
