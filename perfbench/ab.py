#!/usr/bin/env python3
"""A/B and spread helper for the perfbench benchmark.

Two subcommands:

  spread  Run the benchmark of this checkout once per seed and print, per
          metric, the median, the quartiles and the quartile spread as a
          share of the median, against the metric's bound in
          BENCHMARK.json.

            python3 perfbench/ab.py spread --workload serve-diurnal --seeds 1-10

  ab      Build a git revision ("parent") beside this checkout ("change"),
          both with this checkout's perfbench/ directory so the benchmark
          code is identical, then run alternating parent/change pairs (the
          side that runs first alternates; both sides of a pair share a
          seed). Prints each side's median and quartiles, the share of
          pairs the change won (ties count for neither), and whether the
          simulated metrics stayed bit-identical. A gain counts only when
          the change wins at least 9 pairs in 10, the medians differ by
          more than the parent's own quartile spread, and the change
          failed no more passes than the parent.

Both run the end-to-end metrics (--trace 0) at BENCHMARK.json's
run_seconds: the benchmark sets the run length, and only the end-to-end
metrics have bounds to judge a change by.

            python3 perfbench/ab.py ab HEAD~1 --workload batch-spec --pairs 10

Builds go under --workdir (default: a perfbench-ab directory in the system
temporary directory), never into the checkout; point it at a scratch
directory outside the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
SIMULATED_UNITS = ("J", "mJ", "pp", "sim-ms", "sim-min", "sim-s")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_info(spec):
    return {m["name"]: m for m in spec["end_to_end"]}


def build(src_root, target_dir):
    """Builds perfbench under src_root into target_dir; returns the binary."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(src_root, "perfbench", "Cargo.toml")],
        check=True, env=env)
    return os.path.join(target_dir, "release", "aapm-perfbench")


def export_revision(rev, workdir):
    """Writes `rev`'s tree plus this checkout's perfbench/ into workdir."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", rev],
                         check=True, capture_output=True, text=True).stdout.strip()
    dest = os.path.join(workdir, "src-" + sha)
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    shutil.rmtree(os.path.join(dest, "perfbench"), ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("target", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    return dest, sha


def run_once(binary, workload, seed, seconds):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"warning: {workload} seed {seed} reported correct=false", file=sys.stderr)
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cmd_spread(args):
    spec = load_spec()
    info = metric_info(spec)
    binary = build(ROOT, os.path.join(args.workdir, "target-spread"))
    values = {}
    for seed in parse_seeds(args.seeds):
        result = run_once(binary, args.workload, seed, spec["run_seconds"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)
    print(f"{'metric':44s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = info.get(name, {}).get("bound")
        flag = ""
        if bound is not None:
            flag = "ok" if spread <= bound / 3 else ("WIDE" if spread <= bound else "OVER")
        bound_text = f"{bound:6.2f}" if bound is not None else "     -"
        print(f"{name:44s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {bound_text} {flag}")


def cmd_ab(args):
    spec = load_spec()
    info = metric_info(spec)
    os.makedirs(args.workdir, exist_ok=True)
    parent_src, sha = export_revision(args.rev, args.workdir)
    parent = build(parent_src, os.path.join(args.workdir, "target-" + sha))
    change = build(ROOT, os.path.join(args.workdir, "target-change"))
    seconds = spec["run_seconds"]
    sides = {"parent": {}, "change": {}}
    failed = {"parent": 0, "change": 0}
    wins, decided = {}, {}
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = [("parent", parent), ("change", change)]
        if pair % 2:
            order.reverse()
        results = {side: run_once(binary, args.workload, seed, seconds)
                   for side, binary in order}
        for side, result in results.items():
            # A run that is incorrect without a failed pass (a metric missing)
            # counts as one failure more.
            failed[side] += result["failed"] + (not result["correct"])
            for name, m in result["metrics"].items():
                sides[side].setdefault(name, []).append(m["value"])
        for name in results["parent"]["metrics"]:
            p = results["parent"]["metrics"][name]["value"]
            c = results["change"]["metrics"][name]["value"]
            lower = info.get(name, {}).get("better", "lower") == "lower"
            if p != c:
                decided[name] = decided.get(name, 0) + 1
                if (c < p) == lower:
                    wins[name] = wins.get(name, 0) + 1
        print(f"pair {pair} seed {seed} done", file=sys.stderr)
    print(f"workload {args.workload}: parent {args.rev} ({sha}) vs change (this checkout), "
          f"{args.pairs} pairs of {seconds} s; failed passes: parent {failed['parent']}, "
          f"change {failed['change']}")
    print(f"{'metric':40s} {'parent med [q1, q3]':>36s} {'change med [q1, q3]':>36s} "
          f"{'delta':>8s} {'won':>6s}  verdict")
    for name in sides["parent"]:
        pv, cv = sides["parent"][name], sides["change"][name]
        pq1, pm, pq3 = quartiles(pv)
        cq1, cm, cq3 = quartiles(cv)
        delta = (cm - pm) / abs(pm) if pm else float("nan")
        won = wins.get(name, 0) / args.pairs
        m = info.get(name, {})
        lower = m.get("better", "lower") == "lower"
        if m.get("unit") in SIMULATED_UNITS or name == "paper_err_pp":
            verdict = "bit-identical" if pv == cv else "CHANGED"
        elif won >= 0.9 and abs(cm - pm) > (pq3 - pq1):
            if failed["change"] > failed["parent"]:
                verdict = "not a gain (more failures)"
            elif args.pairs < 10:
                verdict = "gain? (needs >= 10 pairs)"
            else:
                verdict = "gain"
        elif "bound" in m and ((cm - pm) / abs(pm) if lower else (pm - cm) / abs(pm)) > m["bound"]:
            verdict = "REGRESSION"
        elif decided.get(name, 0) and (pq3 - pq1) / abs(pm) > m.get("bound", float("inf")):
            verdict = "unresolved"
        else:
            verdict = "no change shown"
        print(f"{name:40s} {pm:12.5g} [{pq1:10.5g}, {pq3:10.5g}] {cm:12.5g} [{cq1:10.5g}, {cq3:10.5g}] "
              f"{delta:+8.2%} {won:6.0%}  {verdict}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workdir", default=os.path.join(tempfile.gettempdir(), "perfbench-ab"))
    sub = parser.add_subparsers(dest="cmd", required=True)
    spread = sub.add_parser("spread", help="quartile spread of this checkout over seeds")
    spread.add_argument("--workload", required=True)
    spread.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ab = sub.add_parser("ab", help="alternating parent/change pairs")
    ab.add_argument("rev", help="the parent git revision")
    ab.add_argument("--workload", required=True)
    ab.add_argument("--pairs", type=int, default=10)
    ab.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args()
    os.makedirs(args.workdir, exist_ok=True)
    {"spread": cmd_spread, "ab": cmd_ab}[args.cmd](args)


if __name__ == "__main__":
    main()
