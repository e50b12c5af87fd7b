// Durability-layer costs (DESIGN.md §6e): what a subscription pays per
// committed poll for crash safety, and what a restarted process pays to
// come back. Three sweeps, all over MemoryFile so the numbers isolate
// the format/replay work from disk hardware:
//
//   BM_StoreAppend       — delta-append throughput vs change-set size,
//                          with and without per-append fsync batching.
//   BM_StoreCheckpoint   — cost of driving a fixed history through the
//                          store as the checkpoint interval varies
//                          (interval 1 = checkpoint every poll).
//   BM_StoreRecovery     — cold Open() latency vs committed history
//                          length at a fixed checkpoint interval.
//   BM_StoreAsOf         — time travel over a recovered history: the
//   BM_StoreBetween        snapshot at the middle step, and a 16-step
//                          window from there, vs history length.
//
// Claims to check: append cost is flat in history length (the log is
// append-only); checkpoint interval trades write amplification
// (bytes_written shrinks as the interval grows) against recovery replay;
// recovery latency grows with the distance back to the last checkpoint,
// not with total history length; AsOf and Between grow with the graph and
// the window, not with the number of steps outside it.

#include <benchmark/benchmark.h>

#include <cassert>
#include <memory>
#include <vector>

#include "doem/doem.h"
#include "store/file.h"
#include "store/store.h"
#include "store/time_travel.h"
#include "testing/generators.h"

namespace doem {
namespace {

struct Script {
  OemDatabase base;
  OemHistory history;
};

Script MakeScript(size_t steps, size_t ops_per_step) {
  testing::DatabaseOptions dopts;
  dopts.seed = 17;
  dopts.node_count = 60;
  Script s{testing::RandomDatabase(dopts), OemHistory()};
  testing::HistoryOptions hopts;
  hopts.seed = 18;
  hopts.steps = steps;
  hopts.ops_per_step = ops_per_step;
  s.history = testing::RandomHistory(s.base, hopts);
  return s;
}

// Drives the whole script through a fresh store; returns the file.
std::unique_ptr<store::MemoryFile> DriveScript(const Script& s,
                                               const store::StoreOptions& opts) {
  auto file = std::make_unique<store::MemoryFile>();
  auto st = store::Store::Open(file.get(), opts);
  assert(st.ok());
  auto db = DoemDatabase::FromSnapshot(s.base);
  Status ok = (*st)->Start(*db);
  assert(ok.ok());
  for (const HistoryStep& step : s.history.steps()) {
    ok = db->ApplyChangeSet(step.time, step.changes);
    assert(ok.ok());
    ok = (*st)->Append(step.time, step.changes, *db);
    assert(ok.ok());
  }
  (void)ok;
  return file;
}

void BM_StoreAppend(benchmark::State& state) {
  size_t ops_per_step = static_cast<size_t>(state.range(0));
  bool sync_each = state.range(1) != 0;
  Script s = MakeScript(64, ops_per_step);
  store::StoreOptions opts;
  opts.sync_each_append = sync_each;
  opts.checkpoint_interval = 1 << 30;  // isolate pure delta appends

  int64_t bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    store::MemoryFile file;
    auto st = store::Store::Open(&file, opts);
    auto db = DoemDatabase::FromSnapshot(s.base);
    Status ok = (*st)->Start(*db);
    for (const HistoryStep& step : s.history.steps()) {
      ok = db->ApplyChangeSet(step.time, step.changes);
    }
    state.ResumeTiming();
    // Re-append the script's deltas against the final db: Append() only
    // serializes the delta, so `current` is consulted for checkpoints
    // alone (never taken at this interval).
    for (const HistoryStep& step : s.history.steps()) {
      ok = (*st)->Append(step.time, step.changes, *db);
    }
    benchmark::DoNotOptimize(ok.ok());
    bytes = static_cast<int64_t>(file.data().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(s.history.steps().size()));
  state.counters["log_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_StoreAppend)
    ->ArgsProduct({{1, 4, 16}, {0, 1}})
    ->ArgNames({"ops", "sync"});

void BM_StoreCheckpoint(benchmark::State& state) {
  size_t interval = static_cast<size_t>(state.range(0));
  Script s = MakeScript(64, 4);
  store::StoreOptions opts;
  opts.checkpoint_interval = interval;

  int64_t bytes = 0;
  for (auto _ : state) {
    auto file = DriveScript(s, opts);
    benchmark::DoNotOptimize(file->data().data());
    bytes = static_cast<int64_t>(file->data().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(s.history.steps().size()));
  state.counters["log_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_StoreCheckpoint)->Arg(1)->Arg(7)->Arg(16)->Arg(64)
    ->ArgNames({"interval"});

void BM_StoreRecovery(benchmark::State& state) {
  size_t steps = static_cast<size_t>(state.range(0));
  Script s = MakeScript(steps, 4);
  store::StoreOptions opts;
  opts.checkpoint_interval = 16;
  auto file = DriveScript(s, opts);

  for (auto _ : state) {
    // Recover from a copy: Open() repairs in place (truncate + sync) and
    // must see the original bytes every iteration.
    store::MemoryFile cold;
    Status ok = cold.Append(file->data());
    auto st = store::Store::Open(&cold, opts);
    benchmark::DoNotOptimize(st.ok() && (*st)->has_state());
    (void)ok;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["log_bytes"] = static_cast<double>(file->data().size());
  state.counters["history"] = static_cast<double>(steps);
}
BENCHMARK(BM_StoreRecovery)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)
    ->ArgNames({"history"});

// The DOEM database of a `steps`-step script and the stamps of the 16-step
// window that starts at its middle step.
struct Archive {
  DoemDatabase db;
  Timestamp from;
  Timestamp to;
};

Archive MakeArchive(size_t steps) {
  Script s = MakeScript(steps, 4);
  auto db = DoemDatabase::Build(s.base, s.history);
  assert(db.ok());
  const auto& all = s.history.steps();
  return {std::move(db).value(), all[steps / 2].time,
          all[steps / 2 + 16].time};
}

void BM_StoreAsOf(benchmark::State& state) {
  Archive a = MakeArchive(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto past = store::AsOf(a.db, a.from);
    benchmark::DoNotOptimize(past.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreAsOf)->Arg(64)->Arg(256)->Arg(1024)->ArgNames({"history"});

void BM_StoreBetween(benchmark::State& state) {
  Archive a = MakeArchive(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto window = store::Between(a.db, a.from, a.to);
    benchmark::DoNotOptimize(window.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreBetween)->Arg(64)->Arg(256)->Arg(1024)
    ->ArgNames({"history"});

}  // namespace
}  // namespace doem

BENCHMARK_MAIN();
