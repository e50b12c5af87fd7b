// E1: history application throughput — the cost of building D(O, H)
// (Section 3.1's inductive construction) and, for comparison, of replaying
// the same history on a plain OEM database (GC'd per change set).
// Axes: database size (restaurants) x history length (steps).
//
// BM_DoemApply_*: the per-poll DOEM core cost, swept over restaurants
// {100, 1k, 10k} x ops per change set {1, 16}. ChangeSet times one
// SyntheticGuideChurn step through ApplyChangeSet, walking a 1,024-step
// churn so that the untimed reset to the base is rare; CurrentSnapshot
// times a copy of the kept current snapshot (QSS diffs against it by
// reference); TwoSnapshotRebase times a kTwoSnapshots poll's DOEM work,
// DoemDatabase::RebaseAndApply, which drops the previous step and applies
// the set in place. An O(delta) core is flat in `restaurants` (ROADMAP):
// ChangeSet and TwoSnapshotRebase are, CurrentSnapshot copies the graph.
// scripts/bench.sh writes all three to BENCH_doem_apply.json.
//
// BM_OemWideNode: one node with `labels` distinct out-labels, built arc by
// arc and then probed label by label, as a merged QSS poll group's wrapper
// root is on every poll (one default entry label per subscriber). Per-label
// lookup must stay O(1) for this to stay linear in `labels`; also written
// to BENCH_doem_apply.json.

#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"

namespace doem {
namespace {

void BM_DoemBuild(benchmark::State& state) {
  const auto& w = bench::GuideWorkload(
      static_cast<size_t>(state.range(0)),
      static_cast<size_t>(state.range(1)), /*ops_per_step=*/10);
  size_t total_ops = 0;
  for (const HistoryStep& s : w.history.steps()) {
    total_ops += s.changes.size();
  }
  for (auto _ : state) {
    auto d = DoemDatabase::Build(w.base, w.history);
    benchmark::DoNotOptimize(d.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(total_ops));
  state.counters["ops_per_history"] = static_cast<double>(total_ops);
  state.counters["base_nodes"] = static_cast<double>(w.base.node_count());
}
BENCHMARK(BM_DoemBuild)
    ->ArgsProduct({{100, 500, 2000}, {10, 50}})
    ->Unit(benchmark::kMillisecond);

void BM_PlainOemReplay(benchmark::State& state) {
  const auto& w = bench::GuideWorkload(
      static_cast<size_t>(state.range(0)),
      static_cast<size_t>(state.range(1)), 10);
  for (auto _ : state) {
    OemDatabase db = w.base;
    Status s = w.history.ApplyTo(&db);
    benchmark::DoNotOptimize(s.ok());
  }
  state.counters["base_nodes"] = static_cast<double>(w.base.node_count());
}
BENCHMARK(BM_PlainOemReplay)
    ->ArgsProduct({{100, 500, 2000}, {10, 50}})
    ->Unit(benchmark::kMillisecond);

// Incremental cost of one more change set on an existing DOEM database,
// as the QSS pays it at every poll.
void BM_DoemIncrementalStep(benchmark::State& state) {
  const auto& w = bench::GuideWorkload(
      static_cast<size_t>(state.range(0)), 20, 10);
  for (auto _ : state) {
    state.PauseTiming();
    DoemDatabase d = w.doem;
    // A realistic small set: one price update on some restaurant.
    ChangeSet ops;
    NodeId g = d.graph().Child(d.root(), "guide");
    for (NodeId r : d.graph().Children(g, "restaurant")) {
      NodeId price = kInvalidNode;
      for (const OutArc& a : d.LiveArcs(r)) {
        if (a.label == "price" && d.CurrentValue(a.child).is_atomic()) {
          price = a.child;
          break;
        }
      }
      if (price != kInvalidNode) {
        ops.push_back(ChangeOp::UpdNode(price, Value::Int(99)));
        break;
      }
    }
    Timestamp t(Timestamp::FromDate(1998, 1, 1).ticks);
    state.ResumeTiming();
    Status s = d.ApplyChangeSet(t, ops);
    benchmark::DoNotOptimize(s.ok());
  }
  state.counters["graph_nodes"] =
      static_cast<double>(w.doem.graph().node_count());
}
BENCHMARK(BM_DoemIncrementalStep)
    ->Arg(100)
    ->Arg(500)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

constexpr size_t kChurnSteps = 1024;

struct ChurnWorkload {
  DoemDatabase base;
  OemHistory churn;
  DoemDatabase churned;  // base after every churn step
};

const ChurnWorkload& Churn(size_t restaurants, size_t ops) {
  using Key = std::pair<size_t, size_t>;
  static auto* cache = new std::map<Key, ChurnWorkload>();
  auto it = cache->find({restaurants, ops});
  if (it == cache->end()) {
    ChurnWorkload w;
    OemDatabase guide = testing::SyntheticGuide(restaurants);
    w.churn = testing::SyntheticGuideChurn(guide, kChurnSteps, ops);
    w.base = DoemDatabase::FromSnapshot(std::move(guide)).value();
    w.churned = w.base;
    Status s = w.churned.ApplyHistory(w.churn);
    assert(s.ok());
    (void)s;
    it = cache->emplace(Key{restaurants, ops}, std::move(w)).first;
  }
  return it->second;
}

void BM_DoemApply_ChangeSet(benchmark::State& state) {
  const ChurnWorkload& w = Churn(static_cast<size_t>(state.range(0)),
                                 static_cast<size_t>(state.range(1)));
  const auto& steps = w.churn.steps();
  DoemDatabase d = w.base;
  size_t next = 0;
  for (auto _ : state) {
    if (next == steps.size()) {
      state.PauseTiming();
      d = w.base;
      next = 0;
      state.ResumeTiming();
    }
    Status s = d.ApplyChangeSet(steps[next].time, steps[next].changes);
    benchmark::DoNotOptimize(s.ok());
    ++next;
  }
  state.counters["graph_nodes"] =
      static_cast<double>(w.base.graph().node_count());
}
BENCHMARK(BM_DoemApply_ChangeSet)
    ->ArgNames({"restaurants", "ops"})
    ->ArgsProduct({{100, 1000, 10000}, {1, 16}})
    ->Unit(benchmark::kMicrosecond);

void BM_DoemApply_CurrentSnapshot(benchmark::State& state) {
  const ChurnWorkload& w = Churn(static_cast<size_t>(state.range(0)),
                                 static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    OemDatabase snap = w.churned.CurrentSnapshot();
    benchmark::DoNotOptimize(snap.node_count());
  }
  state.counters["graph_nodes"] =
      static_cast<double>(w.churned.graph().node_count());
}
BENCHMARK(BM_DoemApply_CurrentSnapshot)
    ->ArgNames({"restaurants", "ops"})
    ->ArgsProduct({{100, 1000, 10000}, {1, 16}})
    ->Unit(benchmark::kMicrosecond);

// As PollGroupManager does under HistoryRetention::kTwoSnapshots: each
// set goes through RebaseAndApply, so the history keeps one step. The
// churn steps cycle without a reset, each lap shifted past the previous
// one in time. `failed_steps` counts refused sets, which return early
// and would look fast; it must read 0.
void BM_DoemApply_TwoSnapshotRebase(benchmark::State& state) {
  const ChurnWorkload& w = Churn(static_cast<size_t>(state.range(0)),
                                 static_cast<size_t>(state.range(1)));
  const auto& steps = w.churn.steps();
  DoemDatabase d = w.base;
  size_t next = 0;
  int64_t lap_ticks = 0;
  size_t failed = 0;
  for (auto _ : state) {
    const HistoryStep& step = steps[next];
    Status s =
        d.RebaseAndApply(Timestamp(step.time.ticks + lap_ticks), step.changes);
    benchmark::DoNotOptimize(s.ok());
    failed += !s.ok();
    if (++next == steps.size()) {
      next = 0;
      lap_ticks += static_cast<int64_t>(steps.size());
    }
  }
  state.counters["graph_nodes"] =
      static_cast<double>(w.base.graph().node_count());
  state.counters["failed_steps"] = static_cast<double>(failed);
}
BENCHMARK(BM_DoemApply_TwoSnapshotRebase)
    ->ArgNames({"restaurants", "ops"})
    ->ArgsProduct({{100, 1000, 10000}, {1, 16}})
    ->Unit(benchmark::kMicrosecond);

void BM_OemWideNode(benchmark::State& state) {
  const size_t labels = static_cast<size_t>(state.range(0));
  std::vector<std::string> names;
  for (size_t i = 0; i < labels; ++i) names.push_back("sub" + std::to_string(i));
  for (auto _ : state) {
    OemDatabase db;
    NodeId root = db.NewNode(Value::Complex());
    NodeId container = db.NewNode(Value::Complex());
    Status s = db.SetRoot(root);
    for (const std::string& name : names) s = db.AddArc(root, name, container);
    size_t found = 0;
    for (const std::string& name : names) {
      found += db.LabelChildCount(root, name);
    }
    benchmark::DoNotOptimize(found);
    benchmark::DoNotOptimize(s.ok());
  }
}
BENCHMARK(BM_OemWideNode)
    ->ArgName("labels")
    ->Arg(8)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace doem

BENCHMARK_MAIN();
