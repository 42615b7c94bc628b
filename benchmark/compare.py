#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the BENCHMARK.json bounds.

    python3 benchmark/compare.py A B

A holds the baseline's runs and B the candidate's: every <workload>.json
below each directory is one run (the --out directory of one
benchmark/run.sh call). Make at least ten runs per side with the same
--seconds, alternating which side runs first (README.md shows the loop).

Prints one row per workload x end-to-end metric: each side's median, the
change of B's median against A's, the bound, each side's spread (the
distance between the quartiles as a share of the median) and a verdict:

  ok          B's median is no worse than A's by more than the bound
  REGRESSION  it is worse by more than the bound
  unresolved  a spread is wider than the bound, so the medians cannot tell
  better      unresolved, but every run of B reads better than every run of A
  exact       a deterministic metric with equal values on every shared seed
  MISMATCH    a deterministic metric that differs on a shared seed

Deterministic metrics (and the deterministic per-layer counters) are pure
functions of the seed, so runs of both sides that used the same seed must
agree exactly; without shared seeds they are compared like the others.

Refuses to compare (exit 2) runs whose hardware_concurrency, build type or
compiler differ. Exits 1 on any regression, mismatch or failed run, else 0.
"""
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

DETERMINISTIC = {"wirelength", "token_period_ps"}
DETERMINISTIC_LAYERS = (
    "pack.clusters", "place.moves_tried", "place.accept_ratio", "place.solver_iterations",
    "place.cost", "rrgraph.nodes", "rrgraph.edges", "route.iterations", "route.reroute_ratio",
    "route.heap_pops", "route.nodes_expanded", "route.edges_scanned", "route.stale_pop_ratio",
    "bitstream.switches_on", "sim.events", "sim.events_per_token", "wire.result_bytes",
)
MUST_MATCH = ("hardware_concurrency", "build_type", "compiler")
MIN_RUNS = 10


def load_runs(directory, workload):
    runs = []
    pattern = os.path.join(directory, "**", workload + ".json")
    for path in sorted(glob.glob(pattern, recursive=True)):
        with open(path) as f:
            runs.append(json.load(f))
    return runs


def spread(values):
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_by(better, a, b):
    """Share by which b is worse than a (negative when b is better)."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def by_seed(runs, key, name):
    return {r["context"]["seed"]: r[key][name]["value"] for r in runs}


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    dir_a, dir_b = sys.argv[1:]
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)

    failures = unresolved = compared = 0
    print(f"{'workload':<16} {'metric':<17} {'A median':>12} {'B median':>12} {'change':>8} "
          f"{'bound':>6} {'spread A':>8} {'spread B':>8}  verdict")
    for workload in (w["name"] for w in bench["workloads"]):
        a, b = load_runs(dir_a, workload), load_runs(dir_b, workload)
        if not a and not b:
            continue
        if not a or not b:
            print(f"{workload}: runs on one side only", file=sys.stderr)
            return 2
        for key in MUST_MATCH:
            seen = {r["context"][key] for r in a + b}
            if len(seen) > 1:
                print(f"refusing to compare {workload}: {key} differs ({sorted(seen)})",
                      file=sys.stderr)
                return 2
        for side, runs in (("A", a), ("B", b)):
            if len(runs) < MIN_RUNS:
                print(f"{workload}: side {side} has {len(runs)} runs, fewer than {MIN_RUNS}")
            bad = [r["context"]["seed"] for r in runs if not r["correct"]]
            if bad:
                print(f"{workload}: side {side} failed its correctness checks on seeds {bad}")
                failures += 1
        shared = sorted({r["context"]["seed"] for r in a} & {r["context"]["seed"] for r in b})
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            ma, mb = statistics.median(va), statistics.median(vb)
            change = worse_by(m["better"], ma, mb)
            sa, sb = spread(va), spread(vb)
            if name in DETERMINISTIC and shared:
                sa_seed, sb_seed = by_seed(a, "metrics", name), by_seed(b, "metrics", name)
                verdict = "exact" if all(sa_seed[s] == sb_seed[s] for s in shared) else "MISMATCH"
            elif max(sa, sb) > bound:
                all_better = all(worse_by(m["better"], x, y) < 0 for x in va for y in vb)
                verdict = "better" if all_better else "unresolved"
            else:
                verdict = "ok" if change <= bound else "REGRESSION"
            failures += verdict in ("REGRESSION", "MISMATCH")
            unresolved += verdict == "unresolved"
            compared += 1
            print(f"{workload:<16} {name:<17} {ma:>12.6g} {mb:>12.6g} {change:>+8.1%} "
                  f"{bound:>6.2%} {sa:>8.1%} {sb:>8.1%}  {verdict}")
        for name in DETERMINISTIC_LAYERS:
            la, lb = by_seed(a, "per_layer", name), by_seed(b, "per_layer", name)
            for s in shared:
                if la[s] != lb[s]:
                    failures += 1
                    print(f"{workload:<16} {name:<17} {la[s]:>12.6g} {lb[s]:>12.6g} "
                          f"seed {s}: MISMATCH")
    if compared == 0:
        print("no runs to compare", file=sys.stderr)
        return 2
    print(f"{failures} regression(s), mismatch(es) or failed run(s); {unresolved} unresolved")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
