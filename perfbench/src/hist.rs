//! Host-time statistics: a log-linear latency histogram and medians.
//!
//! The histogram keeps every recorded duration in a bucket no wider than
//! 1/512 of its value (exact below 1024 ns), in a fixed 224 KiB table, so
//! a run can time tens of millions of control intervals without its own
//! buffers showing up in `peak_rss_mb`. Quantiles interpolate by rank
//! inside the bucket that holds them.

use std::time::Instant;

/// Exact buckets for values below this many nanoseconds.
const EXACT: u64 = 1024;
/// Sub-buckets per power of two above [`EXACT`].
const HALF: u64 = EXACT / 2;
/// Enough buckets for any `u64` nanosecond value.
const BUCKETS: usize = (EXACT + 54 * HALF) as usize;

/// A nanosecond-duration histogram (see the module docs).
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn index(ns: u64) -> usize {
    if ns < EXACT {
        return ns as usize;
    }
    let msb = 63 - u64::from(ns.leading_zeros());
    let shift = msb - 9;
    let mantissa = ns >> shift;
    (EXACT + (shift - 1) * HALF + (mantissa - HALF)) as usize
}

/// `(lower bound, width)` of bucket `i`, in nanoseconds.
fn bounds(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < EXACT {
        return (i as f64, 1.0);
    }
    let shift = (i - EXACT) / HALF + 1;
    let mantissa = (i - EXACT) % HALF + HALF;
    ((mantissa << shift) as f64, (1u64 << shift) as f64)
}

impl Histogram {
    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.total += 1;
    }

    /// Records the time since `*last` and moves `*last` to now: the one
    /// clock read plus bucket update a clocked pass spends per interval.
    pub fn lap(&mut self, last: &mut Instant) {
        let now = Instant::now();
        self.record(u64::try_from((now - *last).as_nanos()).unwrap_or(u64::MAX));
        *last = now;
    }

    /// Durations recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) in nanoseconds, or `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut below = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if (below + count) as f64 > rank {
                let (lower, width) = bounds(i);
                return Some(lower + width * (rank - below as f64 + 0.5) / count as f64);
            }
            below += count;
        }
        None
    }
}

/// The median of `values` (mean of the middle pair for even lengths), or
/// `None` when empty. NaNs sort last.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_tight() {
        let mut prev_end = 0.0;
        for i in 0..BUCKETS - 1 {
            let (lower, width) = bounds(i);
            assert_eq!(
                lower,
                prev_end,
                "bucket {i} starts where {} ended",
                i.max(1) - 1
            );
            assert!(width <= 1.0f64.max(lower / 256.0), "bucket {i} too wide");
            prev_end = lower + width;
        }
        for ns in [
            0,
            1,
            1023,
            1024,
            1025,
            4097,
            123_456_789,
            (1 << 50) + 12_345,
        ] {
            let (lower, width) = bounds(index(ns));
            assert!(lower <= ns as f64 && (ns as f64) < lower + width, "{ns}");
        }
    }

    #[test]
    fn quantiles_track_the_data() {
        let mut h = Histogram::default();
        for ns in 1..=10_000u64 {
            h.record(ns);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((p50 - 5_000.0).abs() < 20.0, "{p50}");
        assert!((p99 - 9_900.0).abs() < 40.0, "{p99}");
        assert!(Histogram::default().quantile(0.5).is_none());
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
