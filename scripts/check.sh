#!/usr/bin/env bash
# Repo verification driver.
#
#   scripts/check.sh            # tier-1: default build + full ctest
#   scripts/check.sh tsan       # DOEM_TSAN build + `ctest -L "qss|perf|obs|store|vm|server"`
#                               # (races the parallel poll engine, the
#                               # incremental query caches, the
#                               # metrics/trace instruments, and the
#                               # durable-store commit path under
#                               # ThreadSanitizer)
#   scripts/check.sh asan       # DOEM_SANITIZE build + full ctest
#                               # (includes the `store` crash/corruption
#                               # matrices and the parser adversarial
#                               # corpus under ASan/UBSan)
#   scripts/check.sh werror     # tier-1 build with -Werror + full ctest
#   scripts/check.sh coverage   # --coverage build + full ctest, then the
#                               # line and branch totals of src/*.cc
#                               # from gcov -b
#   scripts/check.sh all        # tier-1, werror, tsan, then asan
#   scripts/check.sh bench [REV]  # opt-in regression gate (REV defaults
#                               # to HEAD): checks REV out into a temporary
#                               # git worktree, captures its benchmarks there
#                               # with its own scripts/bench.sh, then captures
#                               # this tree's (Release build in build-bench/)
#                               # and compares each file with REV's; fails on
#                               # any >15% slowdown. Both captures run on the
#                               # same box one after the other, so the gate
#                               # measures the change, not the machine. Not
#                               # part of `all` — timing needs a quiet
#                               # machine.
#
# Each mode uses its own build tree (build/, build-werror/, build-tsan/,
# build-asan/, build-coverage/), all ignored by git.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)

tier1() {
  cmake -B build -S . >/dev/null
  cmake --build build -j "$jobs"
  ctest --test-dir build --output-on-failure -j "$jobs"
}

tsan() {
  cmake -B build-tsan -S . -DDOEM_TSAN=ON >/dev/null
  cmake --build build-tsan -j "$jobs"
  # TSAN_OPTIONS makes any detected race fail the test run loudly.
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-tsan -L "qss|perf|obs|store|vm|server" --output-on-failure -j "$jobs"
}

asan() {
  cmake -B build-asan -S . -DDOEM_SANITIZE=ON >/dev/null
  cmake --build build-asan -j "$jobs"
  # The deep-recursion serialization tests need a larger stack under
  # ASan's widened frames (see README).
  ulimit -s 65536 || true
  ctest --test-dir build-asan --output-on-failure -j "$jobs"
}

werror() {
  cmake -B build-werror -S . -DCMAKE_CXX_FLAGS=-Werror >/dev/null
  cmake --build build-werror -j "$jobs"
  ctest --test-dir build-werror --output-on-failure -j "$jobs"
}

coverage() {
  cmake -B build-coverage -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage >/dev/null
  cmake --build build-coverage -j "$jobs"
  find build-coverage -name '*.gcda' -delete
  ctest --test-dir build-coverage --output-on-failure -j "$jobs"
  # Each src/*.cc compiles into exactly one object, so summing gcov's
  # per-file summaries of those sources counts every line once.
  find build-coverage/src -name '*.gcda' -print0 |
    xargs -0 gcov -b -n 2>/dev/null |
    awk -v root="$PWD/src/" '
      /^File / {
        f = substr($2, 2, length($2) - 2)
        keep = index(f, root) == 1 && f ~ /\.cc$/
      }
      keep && /^Lines executed:/ { n = $NF; l += n; lc += n * pct($2) }
      keep && /^Taken at least once:/ { n = $NF; b += n; bc += n * pct($4) }
      function pct(s) { sub(/.*:/, "", s); sub(/%/, "", s); return s / 100 }
      END {
        printf "src/ lines:    %.2f%% of %d\n", 100 * lc / l, l
        printf "src/ branches: %.2f%% of %d (taken at least once)\n", 100 * bc / b, b
      }'
}

bench() {
  local rev="${1:-HEAD}"
  if ! git rev-parse --verify --quiet "$rev^{commit}" >/dev/null; then
    echo "error: '$rev' does not name a commit" >&2
    exit 2
  fi
  # Globals, not locals: the EXIT trap runs after this function returns.
  bench_tmp=$(mktemp -d)
  base="$bench_tmp/base"
  # The worktree is removed however the capture ends.
  trap 'git worktree remove --force "$base" 2>/dev/null || true;
        git worktree prune; rm -rf "$bench_tmp"' EXIT
  git worktree add --detach --quiet "$base" "$rev"

  echo "== capturing $rev in $base =="
  cmake -B "$base/build-bench" -S "$base" -DCMAKE_BUILD_TYPE=Release >/dev/null
  "$base/scripts/bench.sh" build-bench

  compare_args=()
  for baseline in "$base"/BENCH_*.json; do
    [ -f "$baseline" ] && compare_args+=(--compare "$baseline")
  done
  if [ "${#compare_args[@]}" -eq 0 ]; then
    echo "error: the capture of $rev wrote no BENCH_*.json" >&2
    exit 2
  fi

  echo "== capturing this tree against $rev =="
  cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  scripts/bench.sh build-bench "${compare_args[@]}"
}

mode="${1:-tier1}"
case "$mode" in
  tier1) tier1 ;;
  tsan) tsan ;;
  asan) asan ;;
  werror) werror ;;
  coverage) coverage ;;
  all) tier1 && werror && tsan && asan ;;
  bench) bench "${2:-HEAD}" ;;
  *)
    echo "usage: $0 [tier1|tsan|asan|werror|coverage|all|bench [REV]]" >&2
    exit 2
    ;;
esac
