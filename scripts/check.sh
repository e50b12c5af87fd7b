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
#   scripts/check.sh bench [REV] [NAME...]
#                               # opt-in regression gate (REV defaults to
#                               # HEAD; NAMEs pick captures, default all,
#                               # see `scripts/bench.sh --list`): builds
#                               # REV (a git archive in a temporary
#                               # directory) and this tree as Release
#                               # trees, then runs each bench binary on the
#                               # two sides in turn, 5 rounds of 3
#                               # repetitions, and compares the medians
#                               # with scripts/bench_compare.py; fails on
#                               # any >15% slowdown and names the rows
#                               # whose round-to-round spread exceeds 15%
#                               # as noisy. Both sides run this tree's
#                               # capture table; a capture whose binary
#                               # REV lacks is skipped and named, and
#                               # rows on one side only are listed, not
#                               # compared. Not part of `all` — timing
#                               # needs a quiet machine.
#   scripts/check.sh loc        # line counts of the committed src/,
#                               # tests/, and bench/ + qssbench/ files,
#                               # counted as ROADMAP counts them
#                               # (`git ls-files <dir> | xargs cat | wc -l`)
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
  shift || true
  local rounds=5
  if ! git rev-parse --verify --quiet "$rev^{commit}" >/dev/null; then
    echo "error: '$rev' does not name a commit" >&2
    exit 2
  fi
  # A global, not a local: the EXIT trap runs after this function returns.
  bench_tmp=$(mktemp -d)
  trap 'rm -rf "$bench_tmp"' EXIT
  local base="$bench_tmp/base"
  mkdir -p "$base"
  git archive "$rev" | tar -x -C "$base"

  # This tree's capture table names the binaries; REV runs those it has.
  local name binary names=() targets=() known=()
  while read -r name binary; do
    known+=("$name")
    if [ "$#" -gt 0 ] && [[ " $* " != *" $name "* ]]; then
      continue
    fi
    if [ ! -f "$base/bench/$binary.cc" ]; then
      echo "note: $rev has no $binary; BENCH_$name.json is not compared"
      continue
    fi
    names+=("$name")
    targets+=("$binary")
  done < <(scripts/bench.sh --list)
  for name in "$@"; do
    if [[ " ${known[*]} " != *" $name "* ]]; then
      echo "error: no capture named $name (see scripts/bench.sh --list)" >&2
      exit 2
    fi
  done
  if [ "${#names[@]}" -eq 0 ]; then
    echo "error: $rev has none of the captures' binaries" >&2
    exit 2
  fi

  echo "== building $rev and this tree =="
  local dir
  for dir in "$base" .; do
    cmake -B "$dir/build-bench" -S "$dir" -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build "$dir/build-bench" -j "$jobs" --target "${targets[@]}"
  done

  # The two sides of a binary run back to back, in turn, each round in a
  # fresh process: drift of the box falls on both alike, and so does the
  # spread between processes, which repetitions inside one process do
  # not sample.
  local round side order failed=0
  for name in "${names[@]}"; do
    for round in $(seq "$rounds"); do
      echo "== $name, round $round of $rounds =="
      # Odd rounds run REV first, even rounds this tree.
      order=(rev this)
      [ $((round % 2)) -eq 1 ] || order=(this rev)
      for side in "${order[@]}"; do
        dir=build-bench
        [ "$side" = rev ] && dir="$base/build-bench"
        scripts/bench.sh "$dir" --gate "$bench_tmp/$side/$round" --only "$name"
      done
    done
    echo
    echo "== BENCH_$name.json: $rev against this tree =="
    if ! python3 scripts/bench_compare.py \
        --baseline "$bench_tmp"/rev/*/"BENCH_$name.json" \
        --current "$bench_tmp"/this/*/"BENCH_$name.json"; then
      failed=1
    fi
  done
  return "$failed"
}

loc() {
  local dir
  for dir in src tests; do
    printf '%-18s %s\n' "$dir/" "$(git ls-files "$dir" | xargs cat | wc -l)"
  done
  printf '%-18s %s\n' "bench/ + qssbench/" \
    "$(git ls-files bench qssbench | xargs cat | wc -l)"
}

mode="${1:-tier1}"
case "$mode" in
  tier1) tier1 ;;
  tsan) tsan ;;
  asan) asan ;;
  werror) werror ;;
  coverage) coverage ;;
  all) tier1 && werror && tsan && asan ;;
  bench) shift; bench "$@" ;;
  loc) loc ;;
  *)
    echo "usage: $0 [tier1|tsan|asan|werror|coverage|all|loc|bench [REV] [NAME...]]" >&2
    exit 2
    ;;
esac
