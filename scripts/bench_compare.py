#!/usr/bin/env python3
"""Benchmark regression gate: compare two google-benchmark JSON captures.

    scripts/bench_compare.py BASELINE.json CURRENT.json [--threshold 0.15]

Matches benchmarks by name (of the aggregate entries of a capture with
repetitions, _mean and _median are compared; _stddev and _cv are spreads,
not times, and are skipped) and fails — exit 1, one line per
offender — when CURRENT's real_time exceeds BASELINE's by more than the
threshold. Benchmarks present on only one side are reported but never
fail the gate, so adding or retiring benchmarks doesn't break CI.

Captures from different cmake_build_type or num_cpus contexts are
refused outright: comparing Debug against Release numbers, or a 1-CPU
box against a 4-CPU one, would make the gate pure noise.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    entries = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate" and not b["name"].endswith(
                ("_mean", "_median")):
            continue
        entries[b["name"]] = b
    return doc.get("context", {}), entries


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="max allowed fractional slowdown (default 0.15)")
    args = ap.parse_args()

    base_ctx, base = load(args.baseline)
    cur_ctx, cur = load(args.current)

    for key, what in (("cmake_build_type", "build types"),
                      ("num_cpus", "CPU counts")):
        bv, cv = base_ctx.get(key), cur_ctx.get(key)
        if bv != cv:
            print(f"error: {what} differ (baseline={bv}, current={cv}); "
                  "refusing to compare", file=sys.stderr)
            return 2

    regressions = []
    for name, b in sorted(base.items()):
        c = cur.get(name)
        if c is None:
            print(f"  note: {name} only in baseline")
            continue
        old, new = b.get("real_time"), c.get("real_time")
        if not old or not new:
            continue
        ratio = new / old
        marker = "REGRESSION" if ratio > 1 + args.threshold else "ok"
        unit = c.get("time_unit", "ns")
        print(f"  {marker:>10}  {name}  {old:.6g} -> {new:.6g} {unit} "
              f"({(ratio - 1) * 100:+.1f}%)")
        if ratio > 1 + args.threshold:
            regressions.append((name, ratio))
    for name in sorted(set(cur) - set(base)):
        print(f"  note: {name} only in current")

    if regressions:
        print(f"\n{len(regressions)} benchmark(s) regressed more than "
              f"{args.threshold * 100:.0f}%:", file=sys.stderr)
        for name, ratio in regressions:
            print(f"  {name}: {(ratio - 1) * 100:+.1f}%", file=sys.stderr)
        return 1
    print("\nno regressions beyond "
          f"{args.threshold * 100:.0f}% ({len(base)} baseline entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
