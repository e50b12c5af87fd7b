#!/usr/bin/env python3
"""Benchmark regression gate: compare google-benchmark JSON captures.

    scripts/bench_compare.py BASELINE.json CURRENT.json [--threshold 0.15]
    scripts/bench_compare.py --baseline B1.json B2.json ... \\
                             --current C1.json C2.json ...

Matches benchmarks by name and fails — exit 1, one line per offender —
when CURRENT's real_time exceeds BASELINE's by more than the threshold.
A capture with repetitions is compared on its _median rows (_mean,
_stddev and _cv are skipped). With several captures per side (rounds of
the same binary), each side's time is the median over its rounds, and a
row whose rounds spread by more than the threshold on either side
((max - min) / median) is marked noisy and listed at the end: the gate
cannot tell a change of that size from the box's noise. Benchmarks
present on only one side are reported but never fail the gate, so
adding or retiring benchmarks doesn't break CI.

Captures from different cmake_build_type or num_cpus contexts are
refused outright: comparing Debug against Release numbers, or a 1-CPU
box against a 4-CPU one, would make the gate pure noise.
"""

import argparse
import json
import statistics
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    entries = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate" and not b["name"].endswith(
                "_median"):
            continue
        entries[b["name"]] = b
    return doc.get("context", {}), entries


def times(rounds, name):
    return [r[name]["real_time"] for r in rounds
            if name in r and r[name].get("real_time")]


def spread(values):
    return (max(values) - min(values)) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("captures", nargs="*", metavar="BASELINE CURRENT")
    ap.add_argument("--baseline", nargs="+", default=[])
    ap.add_argument("--current", nargs="+", default=[])
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="max allowed fractional slowdown (default 0.15)")
    args = ap.parse_args()
    if args.captures:
        if len(args.captures) != 2 or args.baseline or args.current:
            ap.error("give BASELINE CURRENT, or --baseline and --current")
        args.baseline, args.current = [args.captures[0]], [args.captures[1]]
    if not args.baseline or not args.current:
        ap.error("nothing to compare")

    base_loaded = [load(p) for p in args.baseline]
    cur_loaded = [load(p) for p in args.current]
    base_ctx = base_loaded[0][0]
    for key, what in (("cmake_build_type", "build types"),
                      ("num_cpus", "CPU counts")):
        for ctx, _ in base_loaded + cur_loaded:
            bv, cv = base_ctx.get(key), ctx.get(key)
            if bv != cv:
                print(f"error: {what} differ (baseline={bv}, current={cv}); "
                      "refusing to compare", file=sys.stderr)
                return 2
    base = [entries for _, entries in base_loaded]
    cur = [entries for _, entries in cur_loaded]

    regressions = []
    noisy = []
    names = sorted(set().union(*base))
    cur_names = set().union(*cur)
    for name in names:
        if name not in cur_names:
            print(f"  note: {name} only in baseline")
            continue
        old_rounds, new_rounds = times(base, name), times(cur, name)
        if not old_rounds or not new_rounds:
            continue
        old = statistics.median(old_rounds)
        new = statistics.median(new_rounds)
        ratio = new / old
        marker = "REGRESSION" if ratio > 1 + args.threshold else "ok"
        unit = next(r[name] for r in cur if name in r).get("time_unit", "ns")
        widest = max(spread(old_rounds), spread(new_rounds))
        note = ""
        if widest > args.threshold:
            note = f"  noisy (rounds spread {widest * 100:.0f}%)"
            noisy.append((name, widest))
        print(f"  {marker:>10}  {name}  {old:.6g} -> {new:.6g} {unit} "
              f"({(ratio - 1) * 100:+.1f}%){note}")
        if ratio > 1 + args.threshold:
            regressions.append((name, ratio))
    for name in sorted(cur_names - set(names)):
        print(f"  note: {name} only in current")

    if noisy:
        print(f"\n{len(noisy)} noisy row(s), rounds spread by more than "
              f"{args.threshold * 100:.0f}%:")
        for name, widest in noisy:
            print(f"  {name}: {widest * 100:.0f}%")
    if regressions:
        print(f"\n{len(regressions)} benchmark(s) regressed more than "
              f"{args.threshold * 100:.0f}%:", file=sys.stderr)
        for name, ratio in regressions:
            print(f"  {name}: {(ratio - 1) * 100:+.1f}%", file=sys.stderr)
        return 1
    print("\nno regressions beyond "
          f"{args.threshold * 100:.0f}% ({len(names)} baseline entries, "
          f"{len(base)} and {len(cur)} rounds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
