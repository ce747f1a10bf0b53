#!/usr/bin/env bash
# Full local gate: release build, the whole test suite (every workspace
# member is a default member), clippy with warnings promoted to errors, the
# experiment gates, and the perfbench tests and smoke. Run from anywhere
# inside the repository.
set -euo pipefail

cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test -q --offline
cargo clippy --all-targets --offline -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q --offline

# Deprecation gate: deleted surfaces must stay gone everywhere — as
# definitions or as call sites. The pre-builder run/run_with_faults/
# run_observed free functions and the second session driver (every run goes
# through Session::builder), the cluster JSON codec (GovernorSpec is the one
# spec codec), the standalone model scorer and derived-metrics module, and
# the single-value CombinedPm/PhasePm constructor knobs.
if grep -rnE '\b(run_with_faults|run_observed|runtime::run|run_session|SessionReport|SyncChannel|ClusterSpec|evaluate_power_model|DerivedMetrics|with_gated_floor|with_detector)\b' \
    --include='*.rs' src examples tests crates; then
    echo "deprecation gate FAIL: deleted symbols reappeared" >&2
    exit 1
fi

# Parallel-harness smoke: the full suite on a 2-wide pool must complete and
# leave the wall-clock/speedup report behind.
rm -rf target/suite-csv
cargo run --release --offline -p aapm-experiments -- all --jobs 2 --csv target/suite-csv \
    > /dev/null
test -s results/BENCH_suite.json

# CSV gate: the suite's CSVs must reproduce every committed results/*.csv
# byte for byte (simulated outputs never change by accident).
csvs=0
for csv in $(git ls-files 'results/*.csv'); do
    cmp "$csv" "target/suite-csv/${csv#results/}"
    csvs=$((csvs + 1))
done
if [ "$csvs" -eq 0 ]; then
    echo "csv gate FAIL: no committed results/*.csv to compare" >&2
    exit 1
fi
echo "csv gate: ${csvs} committed CSVs byte-identical"

# Observability smoke: a suite cell with tracing and metrics enabled must
# emit parseable JSONL traces and a non-trivial aggregate snapshot.
rm -rf results/trace-smoke results/METRICS_fault_matrix.json
cargo run --release --offline -p aapm-experiments -- fault-matrix --jobs 2 \
    --trace-out results/trace-smoke \
    --metrics-out results/METRICS_fault_matrix.json > /dev/null
python3 - <<'EOF'
import json, pathlib, sys

traces = sorted(pathlib.Path("results/trace-smoke").glob("*.jsonl"))
assert traces, "no trace files written"
events = 0
for trace in traces:
    for i, line in enumerate(trace.read_text().splitlines(), 1):
        event = json.loads(line)
        assert "t" in event and "event" in event, f"{trace}:{i}: malformed event {event}"
        events += 1
assert events > 0, "no events in any trace"

snapshot = json.loads(pathlib.Path("results/METRICS_fault_matrix.json").read_text())
assert snapshot["runs"] > 0, snapshot
counters = snapshot["counters"]
assert any(name.startswith("fault.") for name in counters), counters
assert any(name.startswith("actuator.") for name in counters), counters
assert counters.get("runtime.intervals", 0) > 0, counters
print(f"observability smoke: {len(traces)} trace(s), {events} event(s), "
      f"{snapshot['runs']} run(s) aggregated")
EOF

# Determinism with the registry installed: the dedicated cross-width test.
cargo test -q --offline -p aapm-experiments --test parallel_determinism \
    observer_outputs_are_byte_identical_across_widths

# Adversarial corpus gate: every committed fixture must replay to its
# recorded verdict (exit 0 means all matched), byte-identically across
# pool widths, and the corpus must hold its 13-fixture floor.
cargo run --release --offline -p aapm-experiments -- --replay-corpus --jobs 1 \
    > results/corpus-replay.jobs1.txt
for jobs in 2 8; do
    cargo run --release --offline -p aapm-experiments -- --replay-corpus --jobs "$jobs" \
        > "results/corpus-replay.jobs${jobs}.txt"
    cmp "results/corpus-replay.jobs1.txt" "results/corpus-replay.jobs${jobs}.txt"
done
fixtures=$(wc -l < results/corpus-replay.jobs1.txt)
if [ "$fixtures" -lt 13 ]; then
    echo "corpus gate FAIL: only ${fixtures} fixture(s) replayed (floor is 13)" >&2
    exit 1
fi
rm -f results/corpus-replay.jobs*.txt
echo "corpus gate: ${fixtures} fixtures replayed byte-identically at --jobs 1/2/8"

# Adaptive-refit smoke: the static-vs-adaptive comparison must run on a
# 2-wide pool and agree byte for byte with the serial run (the refit
# layer's RLS state lives inside each cell, so pool width must not leak
# into the results).
cargo run --release --offline -p aapm-experiments -- adaptive --jobs 1 \
    > results/adaptive.jobs1.txt
cargo run --release --offline -p aapm-experiments -- adaptive --jobs 2 \
    > results/adaptive.jobs2.txt
cmp results/adaptive.jobs1.txt results/adaptive.jobs2.txt
rm -f results/adaptive.jobs*.txt
echo "adaptive gate: static-vs-adaptive experiment byte-identical at --jobs 1/2"

# Fleet smoke: the hierarchical-vs-uniform fleet experiment must run on a
# 2-wide pool and agree byte for byte with the serial run (per-arm fleets
# and controllers live inside each cell, so pool width must not leak into
# the discrete-event schedule or the budget-tree arithmetic).
cargo run --release --offline -p aapm-experiments -- fleet --jobs 1 \
    > results/fleet.jobs1.txt
cargo run --release --offline -p aapm-experiments -- fleet --jobs 2 \
    > results/fleet.jobs2.txt
cmp results/fleet.jobs1.txt results/fleet.jobs2.txt
rm -f results/fleet.jobs*.txt
echo "fleet gate: hierarchical-vs-uniform experiment byte-identical at --jobs 1/2"

# Serve smoke: the open-loop SLO-governor experiment must run on a 2-wide
# pool and agree byte for byte with the serial run (each arm owns its
# arrival streams and meter, so pool width must not perturb one draw of
# the request processes or the fleet spike stage).
cargo run --release --offline -p aapm-experiments -- serve --jobs 1 \
    > results/serve.jobs1.txt
cargo run --release --offline -p aapm-experiments -- serve --jobs 2 \
    > results/serve.jobs2.txt
cmp results/serve.jobs1.txt results/serve.jobs2.txt
rm -f results/serve.jobs*.txt
echo "serve gate: slo-save-vs-static-cap experiment byte-identical at --jobs 1/2"

# Fuzz smoke: a fixed-seed sweep through the property oracles. Findings
# (cap/floor, the paper-expected model-deception violations) are reported
# but tolerated; any universal failure — panic, non-finite metric,
# conservation or watchdog-liveness breach — fails the gate and prints a
# shrunk counterexample to commit under corpus/.
cargo run --release --offline -p aapm-experiments -- --fuzz \
    --cases 512 --seed 20260807 > /dev/null

# perfbench tests: among them, one per output check showing it fires on
# broken input.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# perfbench smoke: a short run of each BENCHMARK.json workload and a traced
# fleet run. Output checks must pass, serve, batch and fleet must run faster
# than real time, and a fleet node step must cost < 10 000 ns (10 000 nodes
# at the 100 ms node cadence step in < 100 ms of wall time). Regressions above these
# floors are judged by a same-host `perfbench/ab.py ab <rev>` A/B run.
smoke=target/perfbench-smoke.txt
for run in serve-diurnal:0 batch-spec:0 fleet-mixed:0 fleet-mixed:1; do
    { printf '%s ' "$run"; cargo run --release --offline --quiet --manifest-path \
        perfbench/Cargo.toml -- --workload "${run%:*}" --seed 1 --seconds 3 \
        --trace "${run#*:}" | tail -n 1; }
done > "$smoke"
python3 - "$smoke" <<'EOF'
import json, sys

runs = dict(line.split(" ", 1) for line in open(sys.argv[1]))
fails = [] if len(runs) == 4 else [f"expected 4 runs, got {sorted(runs)}"]
for run, line in runs.items():
    result = json.loads(line)
    value = {name: metric["value"] for name, metric in result["metrics"].items()}
    print(f"perfbench smoke: {run}: {result['failed']}/{result['attempted']} passes failed")
    if result["correct"] is not True or result["failed"] != 0:
        fails.append(f"{run}: output checks failed")
    if run in ("serve-diurnal:0", "batch-spec:0", "fleet-mixed:0") and not value["sim_per_wall"] > 1.0:
        fails.append(f"{run}: sim_per_wall {value['sim_per_wall']} is not above real time")
    if run == "fleet-mixed:1" and not value["platform.fleet.des_node_tick_ns"] < 10_000:
        fails.append(f"{run}: des_node_tick_ns {value['platform.fleet.des_node_tick_ns']} >= 10 000")
for fail in fails:
    print(f"perfbench smoke FAIL: {fail}", file=sys.stderr)
sys.exit(1 if fails else 0)
EOF

echo "check.sh: all gates passed"
