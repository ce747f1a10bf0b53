//! The metric catalogue and the result line.
//!
//! The catalogue is the single list of metric names and units; a run
//! fills values by name and [`Report::to_json`] emits them in catalogue
//! order, so a run can never print a metric `BENCHMARK.json` does not
//! declare, or miss one it does.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use aapm::spec::REGISTRY;

/// End-to-end metrics (`--trace 0`): `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_per_wall", "sim-s/s"),
    ("step_us_p50", "us"),
    ("step_us_p99", "us"),
    ("peak_rss_mb", "MB"),
    ("energy_j", "J"),
    ("energy_per_request_mj", "mJ"),
    ("sojourn_mean_ms", "sim-ms"),
    ("violation_min", "sim-min"),
    ("sim_runtime_s", "sim-s"),
    ("paper_err_pp", "pp"),
];

/// Per-layer metrics (`--trace 1`) other than the per-registry-kind
/// decide timings: `(name, unit)`.
const PER_LAYER_FIXED: &[(&str, &str)] = &[
    ("platform.machine.tick_ns", "ns"),
    ("platform.machine.serve_tick_ns", "ns"),
    ("platform.machine.fast_forward_ns_per_sim_s", "ns/sim-s"),
    ("platform.batch.lane_tick_ns", "ns"),
    ("platform.batch.serve_lane_tick_ns", "ns"),
    ("platform.fleet.des_node_tick_ns", "ns"),
    ("platform.fleet.serve_cohort_share", "frac"),
    ("platform.fleet.batch_cohort_share", "frac"),
    ("platform.cache.access_ns", "ns"),
    ("platform.serve.idle_interval_frac", "frac"),
    ("platform.pstate_transitions", "count"),
    ("telemetry.daq.sample_ns", "ns"),
    ("telemetry.pmc.sample_ns", "ns"),
    ("telemetry.sensor.read_ns", "ns"),
    ("telemetry.window.p99_ns.w64", "ns"),
    ("telemetry.window.p99_ns.w256", "ns"),
    ("telemetry.metrics.step_overhead_ns", "ns"),
    ("core.runtime.step_ns", "ns"),
    ("core.runtime.self_ns", "ns"),
    ("core.runtime.intervals", "count"),
    ("core.governor.decide_ns", "ns"),
    ("core.governor.decide_share", "frac"),
    ("core.governor.decide_calls", "count"),
    ("core.governor.p99_useful_frac", "frac"),
    ("core.cluster.reallocate_ns.w24", "ns"),
    ("core.cluster.reallocate_ns.mixed", "ns"),
    ("core.cluster.node_control_ns", "ns"),
    ("core.cluster.governor_tick_ns", "ns"),
    ("core.cluster.reallocations", "count"),
    ("workloads.requests.arrival_ns", "ns"),
    ("workloads.requests.arrived", "count"),
    ("workloads.requests.completed", "count"),
    ("setup.characterize_s", "s"),
    ("setup.collect_s", "s"),
    ("setup.fit_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.interval_clock_ns", "ns"),
];

/// The per-kind decide timing's name.
pub fn decide_metric(kind: &str) -> String {
    format!("core.governor.{kind}.decide_ns")
}

/// Every per-layer metric: the fixed list plus one decide timing per
/// `REGISTRY` kind, in registry order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_owned(), u))
        .collect();
    all.extend(
        REGISTRY
            .iter()
            .map(|entry| (decide_metric(entry.kind), "ns")),
    );
    all
}

/// The catalogue for a mode.
pub fn catalogue(traced: bool) -> Vec<(String, &'static str)> {
    if traced {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    }
}

/// One run's result line.
#[derive(Debug, Default)]
pub struct Report {
    /// Passes attempted.
    pub attempted: u64,
    /// Passes whose output checks failed (or that returned an error).
    pub failed: u64,
    values: BTreeMap<String, f64>,
}

impl Report {
    /// Sets a metric's value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Renders the result line for the mode's catalogue. `correct` is
    /// true only when no pass failed and every catalogued metric has a
    /// finite value; an unset or non-finite metric renders as `null`.
    pub fn to_json(&self, traced: bool) -> String {
        let catalogue = catalogue(traced);
        let complete = catalogue
            .iter()
            .all(|(n, _)| self.get(n).is_some_and(f64::is_finite));
        let correct = self.failed == 0 && self.attempted > 0 && complete;
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = match self.get(name) {
                Some(v) if v.is_finite() => format!("{v:?}"),
                _ => "null".to_owned(),
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<(String, &str)> = catalogue(false)
            .into_iter()
            .chain(catalogue(true))
            .collect();
        let mut names: Vec<&str> = all.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric names");
        for (name, unit) in &all {
            assert!(
                name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }

    #[test]
    fn json_marks_missing_or_non_finite_metrics_incorrect() {
        let mut report = Report {
            attempted: 2,
            ..Report::default()
        };
        for (name, _) in catalogue(false) {
            report.set(name, 1.5);
        }
        let json = report.to_json(false);
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": 2, \"failed\": 0"),
            "{json}"
        );
        assert!(
            json.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"),
            "{json}"
        );
        report.set("setup_s", f64::NAN);
        assert!(report.to_json(false).starts_with("{\"correct\": false"));
        report.set("setup_s", 1.0);
        report.failed = 1;
        assert!(report.to_json(false).starts_with("{\"correct\": false"));
        assert!(Report::default()
            .to_json(true)
            .contains("\"trace.overhead_frac\": {\"value\": null"));
    }
}
