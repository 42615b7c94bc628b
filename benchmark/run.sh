#!/usr/bin/env bash
# Build the benchmark (Release, into build-bench/ at the repository root)
# and run it. Every workload runs once, in its own process.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke] [--out DIR]
#       All workloads. Prints every end-to-end and per-layer metric with its
#       unit; exits non-zero if any correctness check fails.
#
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#                    [--smoke] [--out DIR]
#       One workload. The last line on stdout is its JSON summary, with the
#       end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
#
# Results land in DIR (default build-bench/results): <workload>.json and
# the Chrome trace <workload>.trace.json.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
build="$root/build-bench"

workload=""
seed=1
seconds=24
trace=0
smoke=()
out="$build/results"
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --smoke) smoke=(--smoke); shift ;;
        --out) out="$2"; shift 2 ;;
        *) echo "run.sh: unknown argument: $1" >&2; exit 2 ;;
    esac
done

# Build output goes to stderr: the last stdout line must stay the summary.
if [ ! -d "$root/src" ]; then
    echo "run.sh: no library sources in $root/src" >&2
    exit 1
fi
cmake -S "$bench_dir" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j "$(nproc)" >&2

commit=unknown
if [ -e "$root/.git" ]; then
    commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi

run_one() {  # workload
    "$build/afpga_bench" --workload "$1" --trace "$trace" --seed "$seed" --seconds "$seconds" \
        --out "$out" --commit "$commit" "${smoke[@]}"
}

if [ -n "$workload" ]; then
    run_one "$workload"
    exit
fi

status=0
for w in adder_anneal fifo_multilevel styles_stream served_sweep; do
    echo "=== $w"
    run_one "$w" || status=1
done
if [ "$status" -ne 0 ]; then
    echo "FAILED: a correctness check failed (see above)" >&2
fi
exit "$status"
