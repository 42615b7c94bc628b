#!/usr/bin/env python3
"""Check the gates a cad_scaling run published in BENCH_flow.json.

Every gated tier writes ``gates: {name: {value, threshold, ok}}`` plus their
conjunction ``gate_ok``. This prints PASS/FAIL for every gate of every named
tier and exits 1 if a named tier is missing, has no gates, disagrees with its
own ``gate_ok``, or has any gate whose ``ok`` is not true.

Usage: check_bench_gates.py BENCH_flow.json TIER [TIER...]
"""
import json
import sys


def check(bench, tiers):
    failed = False
    for tier in tiers:
        gates = bench.get(tier, {}).get("gates")
        if not gates:
            print(f"FAIL {tier}: no gates published")
            failed = True
            continue
        for name, gate in gates.items():
            ok = gate.get("ok") is True
            print(f"{'PASS' if ok else 'FAIL'} {tier}: {name} "
                  f"(value {json.dumps(gate.get('value'))}, "
                  f"threshold {json.dumps(gate.get('threshold'))})")
            failed = failed or not ok
        if bench[tier].get("gate_ok") is not all(g.get("ok") is True for g in gates.values()):
            print(f"FAIL {tier}: gate_ok disagrees with its gates")
            failed = True
    return not failed


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        bench = json.load(f)
    return 0 if check(bench, argv[2:]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
