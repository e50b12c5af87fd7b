// DESIGN.md §6f: bytecode VM vs tree-walking evaluator. Two sweeps: raw
// path-step dispatch as the path grows, and the QSS per-poll filter
// shape (time-bound Chorel over a churned history, translated strategy)
// as the history grows. The `vm` axis toggles the engine; rows are
// byte-identical either way (vm_test pins that), only speed differs.
// The §6f acceptance claim: at history:128 the vm:1 filter run is >= 2x
// faster than vm:0.

#include <benchmark/benchmark.h>

#include <cassert>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "chorel/chorel.h"
#include "chorel/doem_view.h"
#include "lorel/eval.h"
#include "lorel/lorel.h"
#include "testing/generators.h"
#include "vm/compile.h"
#include "vm/vm.h"

namespace doem {
namespace {

// Raw dispatch cost: one compiled query evaluated repeatedly against a
// fixed guide, walker vs VM, as the path gets longer. package_results
// is off so the loop kernel (step enumeration, binding, emit) is all
// that is timed — the per-poll hot path inside QSS.
void BM_VmPathLength(benchmark::State& state) {
  static const char* kQueries[] = {
      "select guide",
      "select guide.restaurant",
      "select guide.restaurant.address",
      "select guide.restaurant.address.street",
  };
  size_t depth = static_cast<size_t>(state.range(0));
  bool vm = state.range(1) != 0;
  const bench::Workload& w = bench::GuideWorkload(200, 6, 4);
  chorel::DoemView view(w.doem);
  auto nq = lorel::ParseAndNormalize(kQueries[depth - 1]);
  assert(nq.ok());
  vm::Program program;
  if (vm) {
    auto p = vm::Compile(*nq);
    assert(p.ok());
    program = std::move(p).value();
  }
  lorel::EvalOptions opts;
  opts.package_results = false;
  size_t rows = 0;
  for (auto _ : state) {
    auto r = vm ? vm::Run(program, view, opts)
                : lorel::Evaluate(*nq, view, opts);
    assert(r.ok());
    rows = r->rows.size();
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_VmPathLength)
    ->ArgsProduct({{1, 2, 3, 4}, {0, 1}})
    ->ArgNames({"depth", "vm"})
    ->Unit(benchmark::kMicrosecond);

// The QSS per-poll filter path: a cached CompiledQuery with a QSS time
// window (T > t[-1]) evaluated under the translated strategy against a
// DOEM database carrying `history` polls of churn. Each iteration is
// exactly one poll's filter evaluation at full history depth.
void BM_VmChorelFilter(benchmark::State& state) {
  size_t history = static_cast<size_t>(state.range(0));
  bool vm = state.range(1) != 0;
  OemDatabase base = testing::SyntheticGuide(100);
  OemHistory churn = testing::SyntheticGuideChurn(base, history, 8);
  auto d = DoemDatabase::Build(base, churn);
  assert(d.ok());
  std::vector<Timestamp> polls;
  for (const HistoryStep& step : churn.steps()) polls.push_back(step.time);
  chorel::ChorelEngineOptions eopts;
  eopts.use_vm = vm;
  chorel::ChorelEngine engine(*d, eopts);
  // The churn script updates prices, so the QSS-shaped window query that
  // actually matches is the <upd> triple binding.
  auto q = chorel::CompileChorel(
      "select T, OV, NV from guide.restaurant.price"
      "<upd at T from OV to NV> where T > t[-1]");
  assert(q.ok());
  lorel::EvalOptions opts;
  opts.polling_times = &polls;
  size_t rows = 0;
  for (auto _ : state) {
    auto r = engine.RunCompiled(&*q, chorel::Strategy::kTranslated, opts);
    assert(r.ok());
    rows = r->rows.size();
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_VmChorelFilter)
    ->ArgsProduct({{8, 32, 128}, {0, 1}})
    ->ArgNames({"history", "vm"})
    ->Unit(benchmark::kMicrosecond);

// Same shape, direct strategy with index seeding on: vm:1 seeds the
// kSeedAnn step from the annotation index; vm:0 is the tree walker, which
// never seeds and scans every price instead.
void BM_VmDirectSeeded(benchmark::State& state) {
  size_t history = static_cast<size_t>(state.range(0));
  bool vm = state.range(1) != 0;
  OemDatabase base = testing::SyntheticGuide(100);
  OemHistory churn = testing::SyntheticGuideChurn(base, history, 8);
  auto d = DoemDatabase::Build(base, churn);
  assert(d.ok());
  std::vector<Timestamp> polls;
  for (const HistoryStep& step : churn.steps()) polls.push_back(step.time);
  chorel::ChorelEngineOptions eopts;
  eopts.use_vm = vm;
  eopts.seed_from_index = true;
  chorel::ChorelEngine engine(*d, eopts);
  auto q = chorel::CompileChorel(
      "select T, OV, NV from guide.restaurant.price"
      "<upd at T from OV to NV> where T > t[-1]");
  assert(q.ok());
  lorel::EvalOptions opts;
  opts.polling_times = &polls;
  for (auto _ : state) {
    auto r = engine.RunCompiled(&*q, chorel::Strategy::kDirect, opts);
    assert(r.ok());
    benchmark::DoNotOptimize(r->rows.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_VmDirectSeeded)
    ->ArgsProduct({{8, 32, 128}, {0, 1}})
    ->ArgNames({"history", "vm"})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace doem

BENCHMARK_MAIN();
