#!/usr/bin/env bash
# Benchmark capture driver (DESIGN.md §6c, §6e, §6f).
#
#   scripts/bench.sh [build-dir] [--allow-debug]    # default: build
#   scripts/bench.sh [build-dir] --compare BENCH_x.json [--compare ...]
#
# Runs the history-length sweeps — per-poll QSS filter cost and
# engine-level per-delta maintenance cost, incremental vs rebuild — plus
# the durability-layer sweeps and the bytecode-VM dispatch sweeps, and
# writes google-benchmark JSON next to the repo root:
#
#   BENCH_qss_incremental.json     BM_QssHistorySweep
#   BENCH_chorel_incremental.json  BM_ChorelDeltaMaintenance
#   BENCH_obs_overhead.json        BM_QssObsOverhead + instrument microcosts
#   BENCH_store_recovery.json      BM_StoreAppend / BM_StoreCheckpoint /
#                                  BM_StoreRecovery / BM_StoreAsOf /
#                                  BM_StoreBetween
#   BENCH_vm_dispatch.json         BM_VmPathLength / BM_VmChorelFilter /
#                                  BM_VmDirectSeeded
#   BENCH_qss_fanout.json          BM_QssFanOut (layered poll-group fan-out,
#                                  up to 1M filters / 100 groups) +
#                                  BM_QssFanOutTwinCheck
#   BENCH_doem_apply.json          BM_DoemApply_ChangeSet /
#                                  BM_DoemApply_CurrentSnapshot /
#                                  BM_DoemApply_TwoSnapshotRebase (per-poll
#                                  DOEM core cost vs. graph size) +
#                                  BM_OemWideNode (many labels on one node)
#   BENCH_diff.json                BM_KeyedDiff / BM_StructuralDiff /
#                                  BM_DiffNoChanges (E7: OEMdiff cost vs.
#                                  snapshot size and change volume) +
#                                  BM_SourceFetch (the fetch layer: source
#                                  query, answer packaging, validation) +
#                                  BM_WholeGraphPass (its whole-graph
#                                  passes one by one: package, validate,
#                                  copy, destroy)
#   BENCH_extract_history.json     BM_ExtractHistory / BM_IsFeasible /
#                                  BM_OriginalSnapshot (E3: H(D), the
#                                  feasibility check, O_0(D))
#
# With --compare, captures go to a temporary directory instead of the
# repo root and each named baseline is diffed against the fresh capture
# with the same basename via scripts/bench_compare.py; the script exits
# nonzero if any benchmark slowed by more than 15% (the regression
# gate — `scripts/check.sh bench [REV]` runs it against a capture of
# REV, default HEAD, taken just before in a temporary git worktree, so
# both sides are measured on the same box; the committed BENCH_*.json
# files record what a change measured; they are not the gate's baseline).
#
# The claims to check in the output: with incremental:1 the per-poll
# counters stay flat as `history` grows; with incremental:0 they grow,
# and at history:128 the incremental filter cost is >= 10x cheaper. In
# BENCH_obs_overhead.json, obs:1 and obs:2 stay within ~5% of obs:0
# (DESIGN.md §6d overhead budget). In BENCH_store_recovery.json,
# append cost is flat in history length and log_bytes shrinks as the
# checkpoint interval grows; the AsOf and Between rows grow with the
# graph and the window, not with the history outside the window. In
# BENCH_doem_apply.json, an O(delta) DOEM core is flat in
# `restaurants`; the ChangeSet rows are, while the
# CurrentSnapshot and TwoSnapshotRebase rows still grow with the graph.
# In BENCH_diff.json the keyed rows grow linearly in `restaurants` (one
# pass over the new snapshot) and the structural rows faster. In
# BENCH_extract_history.json, BM_ExtractHistory is one pass over the
# graph plus a sort of its ops, not a pass per timestamp.
#
# Numbers from unoptimized builds are not comparable: the script reads
# CMAKE_BUILD_TYPE from the build tree's actual CMakeCache.txt, records
# it as `cmake_build_type` in every capture's context block, and refuses
# to write BENCH_*.json from a non-Release-like build unless
# --allow-debug is given. (google-benchmark's own `library_build_type`
# context field only describes how the *benchmark library* was built,
# which is how Debug captures used to slip through.)
set -euo pipefail
cd "$(dirname "$0")/.."

build="build"
allow_debug=0
baselines=()
expect_baseline=0
for arg in "$@"; do
  if [ "$expect_baseline" -eq 1 ]; then
    baselines+=("$arg")
    expect_baseline=0
    continue
  fi
  case "$arg" in
    --allow-debug) allow_debug=1 ;;
    --compare) expect_baseline=1 ;;
    -*)
      echo "usage: $0 [build-dir] [--allow-debug] [--compare BENCH_x.json]..." >&2
      exit 2
      ;;
    *) build="$arg" ;;
  esac
done
if [ "$expect_baseline" -eq 1 ]; then
  echo "error: --compare needs a baseline JSON argument" >&2
  exit 2
fi
jobs=$(nproc 2>/dev/null || echo 2)

# Where captures land: the repo root normally, a scratch dir in compare
# mode so the committed baselines are never clobbered by the run that is
# checked against them.
outdir="."
if [ "${#baselines[@]}" -gt 0 ]; then
  outdir=$(mktemp -d)
fi

cmake -B "$build" -S . >/dev/null

# The authoritative build type is the configured cache, not what the
# caller believes they configured.
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$build/CMakeCache.txt" | head -1)
case "$build_type" in
  Release|RelWithDebInfo|MinSizeRel) ;;
  *)
    if [ "$allow_debug" -ne 1 ]; then
      cat >&2 <<EOF
error: build tree '$build' has CMAKE_BUILD_TYPE='${build_type:-<empty>}'.
Benchmark captures from unoptimized builds are misleading; configure a
release tree first:

    cmake -B "$build" -S . -DCMAKE_BUILD_TYPE=Release

or pass --allow-debug to capture anyway (the JSON will be tagged
cmake_build_type="${build_type:-<empty>}" so it cannot be mistaken for a
release capture).
EOF
      exit 1
    fi
    echo "warning: capturing from CMAKE_BUILD_TYPE='${build_type:-<empty>}' (--allow-debug)" >&2
    ;;
esac

cmake --build "$build" -j "$jobs" --target \
  bench_qss_cycle bench_chorel_strategies bench_obs_overhead \
  bench_store_recovery bench_vm_dispatch bench_qss_fanout bench_history_apply \
  bench_diff bench_extract_feasible

# Stamps the cache-derived build type into the capture's context block so
# downstream consumers can reject or flag non-release data.
annotate() {
  sed -i "0,/\"context\": {/s//\"context\": {\n    \"cmake_build_type\": \"${build_type:-unknown}\",/" "$1"
}

"$build"/bench/bench_qss_cycle \
  --benchmark_filter='BM_QssHistorySweep' \
  --benchmark_out="$outdir"/BENCH_qss_incremental.json \
  --benchmark_out_format=json
annotate "$outdir"/BENCH_qss_incremental.json

"$build"/bench/bench_chorel_strategies \
  --benchmark_filter='BM_ChorelDeltaMaintenance' \
  --benchmark_out="$outdir"/BENCH_chorel_incremental.json \
  --benchmark_out_format=json
annotate "$outdir"/BENCH_chorel_incremental.json

"$build"/bench/bench_obs_overhead \
  --benchmark_out="$outdir"/BENCH_obs_overhead.json \
  --benchmark_out_format=json
annotate "$outdir"/BENCH_obs_overhead.json

"$build"/bench/bench_store_recovery \
  --benchmark_out="$outdir"/BENCH_store_recovery.json \
  --benchmark_out_format=json
annotate "$outdir"/BENCH_store_recovery.json

"$build"/bench/bench_vm_dispatch \
  --benchmark_out="$outdir"/BENCH_vm_dispatch.json \
  --benchmark_out_format=json
annotate "$outdir"/BENCH_vm_dispatch.json

"$build"/bench/bench_qss_fanout \
  --benchmark_out="$outdir"/BENCH_qss_fanout.json \
  --benchmark_out_format=json
annotate "$outdir"/BENCH_qss_fanout.json

"$build"/bench/bench_history_apply \
  --benchmark_filter='BM_DoemApply|BM_OemWideNode' \
  --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
  --benchmark_out="$outdir"/BENCH_doem_apply.json \
  --benchmark_out_format=json
annotate "$outdir"/BENCH_doem_apply.json

"$build"/bench/bench_diff \
  --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
  --benchmark_out="$outdir"/BENCH_diff.json \
  --benchmark_out_format=json
annotate "$outdir"/BENCH_diff.json

"$build"/bench/bench_extract_feasible \
  --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
  --benchmark_out="$outdir"/BENCH_extract_history.json \
  --benchmark_out_format=json
annotate "$outdir"/BENCH_extract_history.json

echo "wrote BENCH_qss_incremental.json, BENCH_chorel_incremental.json," \
     "BENCH_obs_overhead.json, BENCH_store_recovery.json," \
     "BENCH_vm_dispatch.json, BENCH_qss_fanout.json," \
     "BENCH_doem_apply.json, BENCH_diff.json, and" \
     "BENCH_extract_history.json to $outdir" \
     "(cmake_build_type=$build_type)"

if [ "${#baselines[@]}" -gt 0 ]; then
  failed=0
  for baseline in "${baselines[@]}"; do
    fresh="$outdir/$(basename "$baseline")"
    if [ ! -f "$fresh" ]; then
      echo "error: no fresh capture matching baseline '$baseline'" >&2
      failed=1
      continue
    fi
    echo
    echo "== $(basename "$baseline"): committed baseline vs this run =="
    if ! python3 scripts/bench_compare.py "$baseline" "$fresh"; then
      failed=1
    fi
  done
  exit "$failed"
fi
