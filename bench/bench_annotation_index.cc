// E10: annotation indexes (Section 7 future work) — answering
// "what changed in [t1, t2]?" by binary search over the DOEM's per-kind
// postings vs. scanning every node and arc, across database sizes and
// window widths. Also the cost of a from-scratch index build, the
// reference the DOEM's maintained postings are checked against.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "doem/annotation_index.h"

namespace doem {
namespace {

Timestamp WindowStart(const DoemDatabase& d, double frac) {
  auto times = d.AllTimestamps();
  if (times.empty()) return Timestamp(0);
  size_t i = static_cast<size_t>(frac * (times.size() - 1));
  return times[i];
}

void BM_IndexedRangeProbe(benchmark::State& state) {
  const auto& w = bench::GuideWorkload(
      static_cast<size_t>(state.range(0)), 50, 10);
  const AnnotationIndex& index = w.doem.annotation_index();
  // A narrow "since the last poll" window near the end of the history.
  Timestamp from = WindowStart(w.doem, state.range(1) == 0 ? 0.95 : 0.0);
  Timestamp to = Timestamp::PositiveInfinity();
  size_t hits = 0;
  for (auto _ : state) {
    auto created = index.CreatedIn(from, to);
    auto added = index.AddedIn(from, to);
    hits = created.size() + added.size();
    benchmark::DoNotOptimize(hits);
  }
  state.counters["hits"] = static_cast<double>(hits);
  state.counters["index_entries"] =
      static_cast<double>(index.entry_count());
}
BENCHMARK(BM_IndexedRangeProbe)
    ->ArgsProduct({{100, 500, 2000}, {0, 1}})
    ->ArgNames({"restaurants", "wide"})
    ->Unit(benchmark::kMicrosecond);

void BM_ScanRangeProbe(benchmark::State& state) {
  const auto& w = bench::GuideWorkload(
      static_cast<size_t>(state.range(0)), 50, 10);
  Timestamp from = WindowStart(w.doem, state.range(1) == 0 ? 0.95 : 0.0);
  Timestamp to = Timestamp::PositiveInfinity();
  size_t hits = 0;
  for (auto _ : state) {
    auto created = ScanCreatedIn(w.doem, from, to);
    auto added = ScanAddedIn(w.doem, from, to);
    hits = created.size() + added.size();
    benchmark::DoNotOptimize(hits);
  }
  state.counters["hits"] = static_cast<double>(hits);
}
BENCHMARK(BM_ScanRangeProbe)
    ->ArgsProduct({{100, 500, 2000}, {0, 1}})
    ->ArgNames({"restaurants", "wide"})
    ->Unit(benchmark::kMicrosecond);

void BM_IndexBuild(benchmark::State& state) {
  const auto& w = bench::GuideWorkload(
      static_cast<size_t>(state.range(0)), 50, 10);
  for (auto _ : state) {
    AnnotationIndex index(w.doem);
    benchmark::DoNotOptimize(index.entry_count());
  }
}
BENCHMARK(BM_IndexBuild)
    ->Arg(100)
    ->Arg(500)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace doem

BENCHMARK_MAIN();
