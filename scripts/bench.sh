#!/usr/bin/env bash
# Benchmark capture driver (DESIGN.md §6c, §6e, §6f).
#
#   scripts/bench.sh [build-dir] [--allow-debug] [--only NAME]...
#   scripts/bench.sh build-dir --gate DIR [--only NAME]...
#   scripts/bench.sh --list
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
# The build tree defaults to build/. --only NAME takes BENCH_NAME.json
# alone (repeatable); --list prints each capture's name and binary.
# --gate DIR is the run `scripts/check.sh bench [REV]`, the regression
# gate, makes on each side: it writes the captures to DIR instead of the
# repo root, runs every row 3 times and records the aggregates, and
# neither configures nor builds the tree, which the gate has built and
# which may belong to another checkout. The committed BENCH_*.json files
# record what a change measured, not the gate's baseline.
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
# `restaurants`: the ChangeSet and TwoSnapshotRebase rows are (the
# latter with failed_steps 0), while the CurrentSnapshot rows, a copy of
# the graph, grow with it.
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

# NAME BINARY ARGS...: the capture BENCH_NAME.json and how it is taken.
# ARGS hold no blanks.
aggregates="--benchmark_repetitions=5 --benchmark_report_aggregates_only=true"
captures=(
  "qss_incremental bench_qss_cycle --benchmark_filter=BM_QssHistorySweep"
  "chorel_incremental bench_chorel_strategies --benchmark_filter=BM_ChorelDeltaMaintenance"
  "obs_overhead bench_obs_overhead"
  "store_recovery bench_store_recovery"
  "vm_dispatch bench_vm_dispatch"
  "qss_fanout bench_qss_fanout"
  "doem_apply bench_history_apply --benchmark_filter=BM_DoemApply|BM_OemWideNode $aggregates"
  "diff bench_diff $aggregates"
  "extract_history bench_extract_feasible $aggregates"
)

build="build"
allow_debug=0
gate_dir=""
only=()
while [ "$#" -gt 0 ]; do
  case "$1" in
    --allow-debug) allow_debug=1 ;;
    --list)
      for c in "${captures[@]}"; do
        read -r name binary _ <<<"$c"
        echo "$name $binary"
      done
      exit 0
      ;;
    --only | --gate)
      if [ "$#" -lt 2 ]; then
        echo "error: $1 needs an argument" >&2
        exit 2
      fi
      if [ "$1" = --only ]; then only+=("$2"); else gate_dir="$2"; fi
      shift
      ;;
    -*)
      echo "usage: $0 [build-dir] [--allow-debug] [--gate DIR] [--only NAME]..." \
        "| --list" >&2
      exit 2
      ;;
    *) build="$1" ;;
  esac
  shift
done
jobs=$(nproc 2>/dev/null || echo 2)

[ -n "$gate_dir" ] || cmake -B "$build" -S . >/dev/null

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

outdir="${gate_dir:-.}"
if [ -z "$gate_dir" ]; then
  targets=()
  for c in "${captures[@]}"; do
    read -r _ binary _ <<<"$c"
    targets+=("$binary")
  done
  cmake --build "$build" -j "$jobs" --target "${targets[@]}"
fi

mkdir -p "$outdir"
written=()
for c in "${captures[@]}"; do
  read -r name binary args <<<"$c"
  if [ "${#only[@]}" -gt 0 ] && [[ " ${only[*]} " != *" $name "* ]]; then
    continue
  fi
  out="$outdir/BENCH_$name.json"
  # The later of two repetition flags wins, so the gate's 3 override the
  # table's.
  # shellcheck disable=SC2086
  "$build/bench/$binary" $args \
    ${gate_dir:+--benchmark_repetitions=3} \
    ${gate_dir:+--benchmark_report_aggregates_only=true} \
    --benchmark_out="$out" --benchmark_out_format=json
  # Stamps the cache-derived build type into the capture's context block
  # so downstream consumers can reject or flag non-release data.
  sed -i "0,/\"context\": {/s//\"context\": {\n    \"cmake_build_type\": \"${build_type:-unknown}\",/" "$out"
  written+=("BENCH_$name.json")
done
if [ "${#written[@]}" -eq 0 ]; then
  echo "error: no capture named ${only[*]} (see --list)" >&2
  exit 2
fi
echo "wrote ${written[*]} to $outdir (cmake_build_type=$build_type)"
