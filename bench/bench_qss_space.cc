// E9: the QSS space-saving proposals of Section 6.1 —
//   (1) merging DOEM databases of subscriptions with similar polling
//       queries, and
//   (3) trading accuracy for space by keeping only two snapshots.
// Reported via counters: retained graph nodes/arcs/annotations after a
// fixed polling run, plus the time of the run.

#include <benchmark/benchmark.h>

#include "qss/qss.h"
#include "testing/generators.h"

namespace doem {
namespace {

constexpr int64_t kPolls = 20;

void RunAndMeasure(benchmark::State& state, qss::QssOptions opts,
                   int subs) {
  OemDatabase base = testing::SyntheticGuide(200);
  OemHistory script =
      testing::SyntheticGuideHistory(base, static_cast<size_t>(kPolls), 6);
  Timestamp start(Timestamp::FromDate(1997, 1, 1).ticks);

  double nodes = 0, arcs = 0, annots = 0, groups = 0;
  for (auto _ : state) {
    state.PauseTiming();
    qss::ScriptedSource source(base, script);
    qss::QuerySubscriptionService service(&source, start, opts);
    for (int s = 0; s < subs; ++s) {
      qss::Subscription sub;
      sub.name = "S" + std::to_string(s);
      sub.frequency = *qss::FrequencySpec::Parse("every day");
      sub.polling_query = "select guide.restaurant";
      sub.filter_query = "select " + sub.name +
                         ".restaurant<cre at T> where T > t[-1]";
      Status st = service.Subscribe(sub, nullptr);
      assert(st.ok());
      (void)st;
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        service.AdvanceTo(Timestamp(start.ticks + kPolls - 1)).ok());
    state.PauseTiming();
    nodes = arcs = annots = 0;
    groups = static_cast<double>(service.GroupCount());
    // Sum retained state over distinct DOEM databases.
    std::set<const DoemDatabase*> seen;
    for (int s = 0; s < subs; ++s) {
      const DoemDatabase* d = service.History("S" + std::to_string(s));
      if (d == nullptr || !seen.insert(d).second) continue;
      nodes += static_cast<double>(d->graph().node_count());
      arcs += static_cast<double>(d->graph().arc_count());
      annots += static_cast<double>(d->annotation_index().entry_count());
    }
    state.ResumeTiming();
  }
  state.counters["doem_groups"] = groups;
  state.counters["retained_nodes"] = nodes;
  state.counters["retained_arcs"] = arcs;
  state.counters["retained_annotations"] = annots;
}

void BM_FullHistoryMerged(benchmark::State& state) {
  qss::QssOptions opts;
  RunAndMeasure(state, opts, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_FullHistoryMerged)
    ->Arg(1)
    ->Arg(8)
    ->ArgNames({"subs"})
    ->Unit(benchmark::kMillisecond);

void BM_FullHistoryUnmerged(benchmark::State& state) {
  qss::QssOptions opts;
  opts.merge_similar_polls = false;
  RunAndMeasure(state, opts, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_FullHistoryUnmerged)
    ->Arg(1)
    ->Arg(8)
    ->ArgNames({"subs"})
    ->Unit(benchmark::kMillisecond);

void BM_TwoSnapshotRetention(benchmark::State& state) {
  qss::QssOptions opts;
  opts.retention = qss::HistoryRetention::kTwoSnapshots;
  RunAndMeasure(state, opts, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_TwoSnapshotRetention)
    ->Arg(1)
    ->Arg(8)
    ->ArgNames({"subs"})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace doem

BENCHMARK_MAIN();
