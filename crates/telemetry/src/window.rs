//! Fixed-capacity moving windows over samples, with order statistics.
//!
//! SLO governors read the tail of the most recent completions every control
//! interval: `window.percentile(99.0)` over a window of sojourn times is the
//! moving p99. [`MovingWindow`] keeps the values sorted as they arrive, so
//! that read is a rank lookup rather than a sort.

use std::collections::VecDeque;

use crate::stats::{nan_last_cmp, percentile_of_sorted};

/// A moving window over the most recent `capacity` values, with
/// percentiles read in O(1).
///
/// Beside the FIFO ring of values the window keeps a sorted mirror of the
/// same values, both allocated at full capacity up front:
///
/// * [`push`](Self::push) costs two binary searches (O(log n)) and one
///   `memmove` of the mirror entries between the evicted value's rank and
///   the new value's rank (at most `capacity` values; 2 KB for the SLO
///   governors' 256). It never allocates.
/// * [`percentile`](Self::percentile) interpolates directly on the mirror
///   ([`percentile_of_sorted`]): no allocation, no sort.
///
/// **Invariant:** after every `push` and `clear` the mirror is, bit for
/// bit, the *stable* sort of [`iter`](Self::iter) under [`nan_last_cmp`].
/// A new value is inserted after every value that compares equal to it and
/// the evicted (oldest) value is removed from before every value equal to
/// it, so equal keys stay in arrival order. Hence `window.percentile(p)`
/// equals [`crate::stats::percentile`] over `window.iter()` in every bit.
///
/// # Examples
///
/// ```
/// use aapm_telemetry::window::MovingWindow;
///
/// let mut w = MovingWindow::new(3);
/// w.push(30.0);
/// w.push(10.0);
/// w.push(20.0);
/// w.push(40.0); // evicts 30.0
/// assert_eq!(w.percentile(0.0), Some(10.0));
/// assert_eq!(w.percentile(50.0), Some(20.0));
/// assert_eq!(w.percentile(100.0), Some(40.0));
/// assert_eq!(w.percentile(75.0), Some(30.0)); // interpolated
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MovingWindow {
    values: VecDeque<f64>,
    /// `values` stably sorted by [`nan_last_cmp`].
    sorted: Vec<f64>,
    capacity: usize,
}

impl MovingWindow {
    /// Creates an empty window holding up to `capacity` values.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        MovingWindow {
            values: VecDeque::with_capacity(capacity),
            sorted: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Appends a value, evicting the oldest if full. O(log n) search plus
    /// one `memmove` of at most `capacity` values; never allocates.
    pub fn push(&mut self, value: f64) {
        // Upper bound: after every held value that compares equal.
        let insert = self.sorted.partition_point(|v| nan_last_cmp(v, &value).is_le());
        if self.values.len() < self.capacity {
            self.values.push_back(value);
            self.sorted.insert(insert, value);
            return;
        }
        let evicted = self.values.pop_front().expect("a full window is non-empty");
        self.values.push_back(value);
        // Lower bound: the oldest value precedes every equal value.
        let evict = self.sorted.partition_point(|v| nan_last_cmp(v, &evicted).is_lt());
        debug_assert_eq!(self.sorted[evict].to_bits(), evicted.to_bits());
        // Remove `evict` and insert at `insert` with one shift of the
        // entries between them.
        if insert > evict {
            self.sorted.copy_within(evict + 1..insert, evict);
            self.sorted[insert - 1] = value;
        } else {
            self.sorted.copy_within(insert..evict, insert + 1);
            self.sorted[insert] = value;
        }
    }

    /// Number of values currently held.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the window holds no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Whether the window has reached capacity.
    pub fn is_full(&self) -> bool {
        self.values.len() == self.capacity
    }

    /// Maximum capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Linear-interpolation percentile of the held values (`p` in
    /// `[0, 100]`); `None` when the window is empty or `p` is out of range.
    /// Bit-identical to [`crate::stats::percentile`] over the held values,
    /// read in O(1) from the sorted mirror. NaNs of either sign sort after
    /// `+inf`, so a few poisoned samples inflate the tail (fail-safe toward
    /// "SLO violated") rather than panicking.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        percentile_of_sorted(&self.sorted, p)
    }

    /// Clears the window.
    pub fn clear(&mut self) {
        self.values.clear();
        self.sorted.clear();
    }

    /// Iterates over held values, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.values.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile;

    /// A NaN with its sign bit set, as `0.0 / 0.0` yields on x86-64.
    const NEGATIVE_NAN: u64 = 0xfff8_0000_0000_0000;

    fn assert_matches_stats(w: &MovingWindow) {
        let held: Vec<f64> = w.iter().collect();
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(
                w.percentile(p).map(f64::to_bits),
                percentile(&held, p).map(f64::to_bits),
                "p{p} over {held:?}"
            );
        }
    }

    #[test]
    fn eviction_keeps_most_recent() {
        let mut w = MovingWindow::new(2);
        w.push(1.0);
        w.push(2.0);
        w.push(3.0);
        assert_eq!(w.iter().collect::<Vec<_>>(), vec![2.0, 3.0]);
        assert!(w.is_full());
    }

    #[test]
    fn percentile_over_window_tracks_eviction() {
        let mut w = MovingWindow::new(5);
        assert_eq!(w.percentile(99.0), None, "empty window has no percentile");
        for v in [10.0, 20.0, 30.0, 40.0, 50.0] {
            w.push(v);
        }
        assert_eq!(w.percentile(50.0), Some(30.0));
        assert_eq!(w.percentile(100.0), Some(50.0));
        w.push(60.0); // evicts 10.0 → window is [20, 60]
        assert_eq!(w.percentile(0.0), Some(20.0));
        assert_eq!(w.percentile(100.0), Some(60.0));
    }

    #[test]
    fn percentile_survives_non_finite_values() {
        let mut w = MovingWindow::new(4);
        for v in [1.0, f64::NAN, 2.0, f64::INFINITY] {
            w.push(v);
        }
        // NaN sorts after +inf: the tail is poisoned (inflated), the
        // lower order statistics are intact, and nothing panics.
        assert_eq!(w.percentile(0.0), Some(1.0));
        assert!(w.percentile(99.0).unwrap().is_nan() || w.percentile(99.0).unwrap().is_infinite());
        assert!(w.percentile(100.0).unwrap().is_nan());
        // Out-of-range ranks degrade to None, not a panic.
        assert_eq!(w.percentile(101.0), None);
        assert_eq!(w.percentile(f64::NAN), None);
    }

    #[test]
    fn negative_nan_poisons_the_tail_too() {
        let mut w = MovingWindow::new(4);
        for v in [1.0, f64::from_bits(NEGATIVE_NAN), 2.0, f64::NEG_INFINITY] {
            w.push(v);
        }
        assert_eq!(w.percentile(0.0), Some(f64::NEG_INFINITY));
        assert!(w.percentile(100.0).unwrap().is_nan());
        assert_matches_stats(&w);
    }

    #[test]
    fn evicting_one_of_several_equal_duplicates() {
        let mut w = MovingWindow::new(4);
        for v in [5.0, 5.0, 1.0, 5.0] {
            w.push(v);
        }
        w.push(3.0); // evicts the first 5.0 of three
        assert_eq!(w.iter().collect::<Vec<_>>(), vec![5.0, 1.0, 5.0, 3.0]);
        assert_eq!(w.sorted, vec![1.0, 3.0, 5.0, 5.0]);
        w.push(5.0); // evicts another 5.0, inserts an equal one
        assert_eq!(w.sorted, vec![1.0, 3.0, 5.0, 5.0]);
        assert_matches_stats(&w);
    }

    #[test]
    fn evicting_negative_zero_keeps_positive_zero() {
        let mut w = MovingWindow::new(2);
        w.push(-0.0);
        w.push(0.0);
        w.push(1.0); // evicts -0.0
        let bits: Vec<u64> = w.sorted.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, vec![0.0f64.to_bits(), 1.0f64.to_bits()]);
        assert_eq!(w.percentile(0.0).map(f64::to_bits), Some(0.0f64.to_bits()));
        assert_matches_stats(&w);
    }

    #[test]
    fn clear_resets() {
        let mut w = MovingWindow::new(2);
        w.push(1.0);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.percentile(50.0), None);
        w.push(2.0);
        assert_eq!(w.percentile(50.0), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = MovingWindow::new(0);
    }
}
