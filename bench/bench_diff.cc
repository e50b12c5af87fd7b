// E7: OEMdiff cost — keyed vs. structural differencing as a function of
// snapshot size and change volume. Structural matching is the expensive
// CRGMW96-style step the paper's QSS pays when the wrapper has no
// persistent ids. BM_SourceFetch times the layer before the diff: the
// source's query and answer packaging plus the answer's validation.
// BM_WholeGraphPass times the whole-graph passes inside the fetch one by
// one.

#include <benchmark/benchmark.h>

#include <chrono>
#include <optional>

#include "bench/bench_common.h"
#include "diff/diff.h"
#include "lorel/lorel.h"
#include "oem/subgraph.h"
#include "qss/source.h"

namespace doem {
namespace {

struct DiffInput {
  OemDatabase from;
  OemDatabase to_keyed;       // shared ids
  OemDatabase to_structural;  // fresh ids
};

const DiffInput& MakeInput(size_t restaurants, size_t edit_steps) {
  static auto* cache = new std::map<std::pair<size_t, size_t>, DiffInput>();
  auto key = std::make_pair(restaurants, edit_steps);
  auto it = cache->find(key);
  if (it == cache->end()) {
    DiffInput in;
    in.from = testing::SyntheticGuide(restaurants);
    in.to_keyed = in.from;
    OemHistory h =
        testing::SyntheticGuideHistory(in.from, edit_steps, 10);
    Status s = h.ApplyTo(&in.to_keyed);
    assert(s.ok());
    (void)s;
    in.to_structural.ReserveIdsBelow(in.to_keyed.PeekNextId() + 1000);
    auto map = CopyReachable(in.to_keyed, {in.to_keyed.root()},
                             &in.to_structural, false);
    assert(map.ok());
    Status rs = in.to_structural.SetRoot(map->at(in.to_keyed.root()));
    assert(rs.ok());
    (void)rs;
    it = cache->emplace(key, std::move(in)).first;
  }
  return it->second;
}

void BM_KeyedDiff(benchmark::State& state) {
  const DiffInput& in = MakeInput(static_cast<size_t>(state.range(0)),
                                  static_cast<size_t>(state.range(1)));
  size_t ops = 0;
  for (auto _ : state) {
    auto u = DiffSnapshots(in.from, in.to_keyed, DiffMode::kKeyed);
    ops = u.ok() ? u->size() : 0;
    benchmark::DoNotOptimize(u.ok());
  }
  state.counters["ops"] = static_cast<double>(ops);
  state.counters["from_nodes"] = static_cast<double>(in.from.node_count());
}
BENCHMARK(BM_KeyedDiff)
    ->ArgsProduct({{100, 500, 2000, 8000}, {2, 20}})
    ->ArgNames({"restaurants", "edit_steps"})
    ->Unit(benchmark::kMillisecond);

void BM_StructuralDiff(benchmark::State& state) {
  const DiffInput& in = MakeInput(static_cast<size_t>(state.range(0)),
                                  static_cast<size_t>(state.range(1)));
  size_t ops = 0;
  for (auto _ : state) {
    auto u = DiffSnapshots(in.from, in.to_structural,
                           DiffMode::kStructural);
    ops = u.ok() ? u->size() : 0;
    benchmark::DoNotOptimize(u.ok());
  }
  state.counters["ops"] = static_cast<double>(ops);
}
BENCHMARK(BM_StructuralDiff)
    ->ArgsProduct({{100, 500, 2000}, {2, 20}})
    ->ArgNames({"restaurants", "edit_steps"})
    ->Unit(benchmark::kMillisecond);

// The no-change fast path both modes hit at most polls.
void BM_DiffNoChanges(benchmark::State& state) {
  const DiffInput& in = MakeInput(static_cast<size_t>(state.range(0)), 2);
  DiffMode mode =
      state.range(1) == 0 ? DiffMode::kKeyed : DiffMode::kStructural;
  const OemDatabase& to =
      mode == DiffMode::kKeyed ? in.from : in.to_structural;
  // For structural, diff the structural copy against itself-equivalent.
  const OemDatabase& from = mode == DiffMode::kKeyed ? in.from : to;
  for (auto _ : state) {
    auto u = DiffSnapshots(from, to, mode);
    benchmark::DoNotOptimize(u.ok());
  }
}
BENCHMARK(BM_DiffNoChanges)
    ->ArgsProduct({{500, 2000}, {0, 1}})
    ->ArgNames({"restaurants", "structural"})
    ->Unit(benchmark::kMillisecond);

// The fetch layer of a keyed poll: the source evaluates the polling query
// over its guide and packages the answer, and the poller validates it
// (AttemptPoll's one Validate).
void BM_SourceFetch(benchmark::State& state) {
  const size_t restaurants = static_cast<size_t>(state.range(0));
  qss::ScriptedSource source(testing::SyntheticGuide(restaurants), {});
  size_t nodes = 0;
  for (auto _ : state) {
    auto answer =
        source.PollForGroup("g", "select guide.restaurant", Timestamp(1));
    bool ok = answer.ok() && answer->Validate().ok();
    if (!ok) state.SkipWithError("fetch failed");
    nodes = answer.ok() ? answer->node_count() : 0;
    benchmark::DoNotOptimize(ok);
  }
  state.counters["answer_nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_SourceFetch)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->ArgName("restaurants")
    ->Unit(benchmark::kMicrosecond);

// The whole-graph passes of a fetch, each timed alone: `pass` 0 packages
// the answer of `select guide.restaurant` from its rows, 1 validates that
// answer, 2 copies the guide and 3 destroys a copy of the answer. Each
// should cost a small constant per node, so a row should grow about 10x
// from restaurants:1000 to restaurants:10000.
void BM_WholeGraphPass(benchmark::State& state) {
  static const char* const kPasses[] = {"package", "validate", "copy",
                                        "destroy"};
  const int64_t pass = state.range(0);
  const OemDatabase guide =
      testing::SyntheticGuide(static_cast<size_t>(state.range(1)));
  lorel::OemView view(guide);
  auto query = lorel::RunQuery("select guide.restaurant", view);
  if (!query.ok()) {
    state.SkipWithError("query failed");
    return;
  }
  const OemDatabase& answer = query->answer;
  for (auto _ : state) {
    lorel::QueryResult packaged;
    std::optional<OemDatabase> db;
    if (pass == 0) {
      packaged.rows = query->rows;
      packaged.labels = query->labels;
    } else if (pass == 3) {
      db = answer;
    }
    bool ok = true;
    auto start = std::chrono::steady_clock::now();
    switch (pass) {
      case 0:
        ok = lorel::PackageResult(view, 1, &packaged).ok();
        break;
      case 1:
        ok = answer.Validate().ok();
        break;
      case 2:
        db = guide;
        break;
      case 3:
        db.reset();
        break;
    }
    auto end = std::chrono::steady_clock::now();
    if (!ok) state.SkipWithError("pass failed");
    benchmark::DoNotOptimize(packaged.answer.node_count());
    benchmark::DoNotOptimize(db.has_value());
    state.SetIterationTime(std::chrono::duration<double>(end - start).count());
  }
  state.SetLabel(kPasses[pass]);
  state.counters["nodes"] = static_cast<double>(
      pass == 2 ? guide.node_count() : answer.node_count());
}
BENCHMARK(BM_WholeGraphPass)
    ->ArgsProduct({{0, 1, 2, 3}, {100, 1000, 10000}})
    ->ArgNames({"pass", "restaurants"})
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace doem

BENCHMARK_MAIN();
