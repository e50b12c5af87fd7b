#!/usr/bin/env python3
"""Builds and runs the QSS benchmark that BENCHMARK.json declares.

Run from the repository root:

  python3 qssbench/run.py --workload poll_large_graph --seed 1 --seconds 10 --trace 0
  python3 qssbench/run.py --compare RESULT_A.json RESULT_B.json

The first run configures and builds the library (src/) and the benchmark
in Release under $CARGO_TARGET_DIR (default: .bench_build); later runs
rebuild only what changed. Build output goes to <build>/build.log, never
to stdout, so the last line of stdout is the benchmark's JSON result.
Each run also writes its record, stamped with the machine, to
<build>/results/, and a traced run writes its spans as Chrome trace JSON
to <build>/traces/.

--compare prints two records side by side. It refuses records taken on
different machines or from a non-Release build.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run may take 180 s; the benchmark itself stops starting work after 120.
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    tree = os.path.join(out_dir, "qssbench")
    os.makedirs(tree, exist_ok=True)
    cache = os.path.join(tree, "CMakeCache.txt")
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", tree,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", tree, "--target", "qssbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                code = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT)
            except OSError as e:
                code = None
                log.write(f"{cmd[0]}: {e}\n")
            if code != 0:
                if cmd[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)  # configure again next time
                sys.stderr.write(f"qssbench: build failed: {' '.join(cmd)} "
                                 f"(see {log_path})\n")
                return None
    return os.path.join(tree, "qssbench")


def run(args):
    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1
    results = os.path.join(out_dir, "results")
    traces = os.path.join(out_dir, "traces")
    os.makedirs(results, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(results, stem + ".json")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(traces, stem + ".trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"qssbench: run exceeded {RUN_TIMEOUT_S} s\n")
        return 1
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


def compare(path_a, path_b):
    records = []
    for path in (path_a, path_b):
        with open(path) as f:
            records.append(json.load(f))
    a, b = records
    for path, rec in ((path_a, a), (path_b, b)):
        if rec["machine"]["build_type"] != "Release":
            sys.stderr.write(f"qssbench: refusing {path}: a "
                             f"{rec['machine']['build_type']} build\n")
            return 3
    ma, mb = a["machine"], b["machine"]
    if (ma["nproc"], ma["cpu_model"]) != (mb["nproc"], mb["cpu_model"]):
        sys.stderr.write("qssbench: refusing to compare results from "
                         f"different machines: {ma['nproc']} x "
                         f"{ma['cpu_model']} vs {mb['nproc']} x "
                         f"{mb['cpu_model']}\n")
        return 3
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        sys.stderr.write("qssbench: refusing to compare different workloads "
                         "or trace modes\n")
        return 3
    print(f"{a['workload']} trace={a['trace']}: seed {a['seed']} vs "
          f"seed {b['seed']} on {ma['nproc']} x {ma['cpu_model']}")
    for name, ma_metric in a["metrics"].items():
        mb_metric = b["metrics"].get(name)
        if mb_metric is None:
            continue
        va, vb = ma_metric["value"], mb_metric["value"]
        change = f"{(vb - va) / va * 100:+.1f}%" if va else ""
        print(f"  {name:30} {va:16.6g} {vb:16.6g} {ma_metric['unit']:6} "
              f"{change}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar="RESULT")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
