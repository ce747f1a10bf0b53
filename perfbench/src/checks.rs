//! Output checks. Each appends one line per violation to `failures`; a
//! pass with any failure counts toward `failed` (and `failed_frac`).

use crate::workloads::SimOutcome;

/// A serve queue must conserve requests: `arrived = completed + pending`.
pub fn queue_conserved(
    label: &str,
    arrived: u64,
    completed: u64,
    pending: u64,
    failures: &mut Vec<String>,
) {
    if completed.checked_add(pending) != Some(arrived) {
        failures.push(format!(
            "{label}: arrived {arrived} != completed {completed} + pending {pending}"
        ));
    }
}

/// Every request the feeder offered must have reached a queue.
pub fn offered_arrived(offered: u64, arrived: u64, failures: &mut Vec<String>) {
    if offered != arrived {
        failures.push(format!(
            "feeder offered {offered} requests but queues saw {arrived}"
        ));
    }
}

/// After a reallocation, the node caps may not exceed the datacenter
/// budget, under an exact float compare. `rack_sums` holds each rack's
/// caps summed in node order; they are summed in rack order, the budget
/// tree's own accounting order.
pub fn caps_within_budget(tick: u64, rack_sums: &[f64], budget_w: f64, failures: &mut Vec<String>) {
    let total: f64 = rack_sums.iter().sum();
    // `!(total <= budget)` so a NaN cap counts as a breach.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(total <= budget_w) {
        failures.push(format!(
            "tick {tick}: node caps sum to {total} W, above the {budget_w} W budget"
        ));
    }
}

/// Every simulated number must be finite.
pub fn finite(outcome: &SimOutcome, failures: &mut Vec<String>) {
    for (name, value) in outcome.fields() {
        if !value.is_finite() {
            failures.push(format!("simulated {name} is {value}"));
        }
    }
}

/// Two passes at the same seed must agree bit for bit.
pub fn repeats(first: &SimOutcome, again: &SimOutcome, failures: &mut Vec<String>) {
    for ((name, a), (_, b)) in first.fields().into_iter().zip(again.fields()) {
        if a.to_bits() != b.to_bits() {
            failures.push(format!(
                "simulated {name} differs between passes at one seed: {a} vs {b}"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_check_fires_on_a_broken_input_and_passes_a_good_one() {
        let mut f = Vec::new();
        queue_conserved("q", 10, 7, 3, &mut f);
        offered_arrived(5, 5, &mut f);
        caps_within_budget(1, &[50.0, 50.0], 100.0, &mut f);
        let good = SimOutcome {
            energy_j: 1.0,
            ..SimOutcome::default()
        };
        finite(&good, &mut f);
        repeats(&good, &good, &mut f);
        assert!(f.is_empty(), "{f:?}");

        queue_conserved("q", 10, 7, 2, &mut f);
        assert_eq!(f.len(), 1);
        queue_conserved("q", 1, u64::MAX, 1, &mut f);
        assert_eq!(f.len(), 2, "overflow counts as a failure");
        offered_arrived(5, 4, &mut f);
        assert_eq!(f.len(), 3);
        caps_within_budget(1, &[50.0, 50.000_000_000_001], 100.0, &mut f);
        assert_eq!(f.len(), 4, "exact compare catches a sub-nanowatt overshoot");
        caps_within_budget(1, &[f64::NAN], 100.0, &mut f);
        assert_eq!(f.len(), 5);
        finite(
            &SimOutcome {
                sojourn_mean_ms: f64::NAN,
                ..good
            },
            &mut f,
        );
        finite(
            &SimOutcome {
                energy_j: f64::INFINITY,
                ..good
            },
            &mut f,
        );
        assert_eq!(f.len(), 7);
        repeats(
            &good,
            &SimOutcome {
                energy_j: f64::from_bits(1.0f64.to_bits() + 1),
                ..good
            },
            &mut f,
        );
        assert_eq!(f.len(), 8, "one ulp is a difference");
    }
}
