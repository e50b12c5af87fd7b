// The archive workload: the read side of the same layers. Set-up writes
// a random DOEM history to an in-memory store at checkpoint interval 16.
// The timed part restarts from that log (Store::Open, then the first
// answer of each Section 5 strategy) and runs a closed loop of corpus
// sweeps: every ChorelQueryCorpus query under both strategies, on the
// recovered archive or, every fifth sweep, on a window reconstructed with
// store::AsOf or store::Between first.
//
// An operation is one sweep, not one query: the corpus mixes cheap and
// expensive query shapes, so the median single query jumps between the
// two, while a sweep's total does not. Per-query times are reported too.

#include <algorithm>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "chorel/chorel.h"
#include "obs/metrics.h"
#include "store/store.h"
#include "store/time_travel.h"
#include "testing/generators.h"
#include "workloads.h"

namespace doem {
namespace qssbench {
namespace {

/// The archive's data comes from the generators' default seeds, not the
/// run's: the cost of the corpus over one random graph and history swings
/// several-fold from seed to seed (with whichever subtrees the history
/// cuts off and whichever closures it links up), which would drown any
/// change to the code. The run's seed orders the queries and places the
/// windows.
constexpr uint32_t kDatabaseSeed = testing::DatabaseOptions{}.seed;
constexpr uint32_t kHistorySeed = testing::HistoryOptions{}.seed;
constexpr size_t kNodes = 300;
constexpr size_t kLabels = 8;
constexpr size_t kOpsPerStep = 8;
/// Not a multiple of the checkpoint interval, so recovery replays deltas
/// on top of its last checkpoint.
constexpr size_t kSteps = 264;
constexpr size_t kCheckpointInterval = 16;
constexpr size_t kSweepsPerEpoch = 20;
/// Between windows span this many history steps.
constexpr size_t kWindowSteps = 16;

enum class Window { kNone, kAsOf, kBetween };

struct ArchiveTally {
  /// Set-up CPU time, s.
  Samples setup_cpu_s;
  Samples restart_ms;
  /// Wall time and CPU time of each sweep, us.
  Samples sweep_us;
  Samples sweep_cpu_us;
  /// Each sweep's CPU time relative to the reference work.
  RelativeCost cost;
  Samples query_us;
  int64_t busy_ns = 0;
  /// The process's peak resident memory at the end of the first epoch
  /// run on this tally; 0 before.
  double peak_rss_mb = 0;
};

const char* StrategyName(chorel::Strategy s) {
  return s == chorel::Strategy::kDirect ? "direct" : "translated";
}

// Checks that both strategies answered `query` with the same rows.
void CheckSameRows(const std::string& query,
                   const Result<lorel::QueryResult>& direct,
                   const Result<lorel::QueryResult>& translated,
                   Report* report) {
  ++report->attempted;
  if (!direct.ok() || !translated.ok()) {
    report->Fail("query failed: " + query + ": " +
                 (direct.ok() ? translated.status() : direct.status())
                     .ToString());
  } else if (direct->RowsToString() != translated->RowsToString()) {
    report->Fail("strategies disagree on rows: " + query);
  }
}

size_t RunArchiveEpoch(uint32_t seed, uint32_t epoch, Ledger* ledger,
                       bool replay_history, ArchiveTally* tally,
                       Report* report) {
  const int64_t setup_cpu_start = ProcessCpuNs();
  ++report->attempted;
  testing::DatabaseOptions database_options;
  database_options.seed = kDatabaseSeed;
  database_options.node_count = kNodes;
  database_options.label_alphabet = kLabels;
  const OemDatabase base = testing::RandomDatabase(database_options);
  testing::HistoryOptions history_options;
  history_options.seed = kHistorySeed;
  history_options.steps = kSteps;
  history_options.ops_per_step = kOpsPerStep;
  const OemHistory history = testing::RandomHistory(base, history_options);

  auto built = DoemDatabase::FromSnapshot(base);
  if (!built.ok()) {
    report->Fail("base snapshot: " + built.status().ToString());
    return 0;
  }
  DoemDatabase written = std::move(built).value();
  store::MemoryFile log;
  store::StoreOptions store_options;
  store_options.checkpoint_interval = kCheckpointInterval;
  auto writer = store::Store::Open(&log, store_options);
  Status status = writer.ok() ? (*writer)->Start(written) : writer.status();
  std::vector<Timestamp> times;
  for (const HistoryStep& step : history.steps()) {
    if (!status.ok()) break;
    status = written.ApplyChangeSet(step.time, step.changes);
    if (status.ok()) {
      status = (*writer)->Append(step.time, step.changes, written);
    }
    times.push_back(step.time);
  }
  if (!status.ok()) {
    report->Fail("writing the archive: " + status.ToString());
    return 0;
  }
  const double setup_cpu_s =
      static_cast<double>(ProcessCpuNs() - setup_cpu_start) / 1e9;
  tally->setup_cpu_s.Add(setup_cpu_s);
  tally->cost.AddSetup(setup_cpu_s);

  const std::vector<std::string> corpus = testing::ChorelQueryCorpus(kLabels);
  // Each epoch draws its own query order and windows, so a run's slow
  // sweeps come from many windows rather than the same few repeated.
  std::seed_seq rng_seed{seed, epoch};
  std::mt19937 rng(rng_seed);
  std::vector<size_t> order(corpus.size());
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
  obs::MetricsRegistry metrics;
  chorel::ChorelEngineOptions engine_options;
  lorel::EvalStats stats;
  lorel::EvalOptions eval_options;
  if (ledger != nullptr) {
    engine_options.metrics = &metrics;
    eval_options.stats = &stats;
  }
  auto count_rows = [&](const Result<lorel::QueryResult>& result) {
    if (ledger != nullptr && result.ok()) {
      ledger->Count("lorel.rows", static_cast<double>(result->rows.size()));
    }
  };

  // Restart: what a restarted process waits for before its first answer
  // under each strategy, to the corpus's first query in every epoch.
  store::MemoryFile cold(log.data());
  const int64_t restart_start = NowNs();
  auto reopened = store::Store::Open(&cold, store_options);
  const int64_t opened = NowNs();
  ++report->attempted;
  if (!reopened.ok() || !(*reopened)->has_state()) {
    report->Fail("reopening the archive: " +
                 (reopened.ok() ? std::string("no state")
                                : reopened.status().ToString()));
    return 0;
  }
  const size_t replayed = (*reopened)->recovery().replayed;
  DoemDatabase db = (*reopened)->TakeRecoveredDb();
  chorel::ChorelEngine engine(db, engine_options);
  const std::string& first = corpus.front();
  auto direct = engine.Run(first, chorel::Strategy::kDirect, eval_options);
  const int64_t direct_done = NowNs();
  auto translated =
      engine.Run(first, chorel::Strategy::kTranslated, eval_options);
  const int64_t restart_end = NowNs();
  tally->restart_ms.Add(static_cast<double>(restart_end - restart_start) /
                        1e6);
  if (ledger != nullptr) {
    ledger->Span("store.recovery", kNoSpan, restart_start, opened);
    ledger->Sample("store.records_replayed", static_cast<double>(replayed));
    ledger->Span("encoding.build", kNoSpan, direct_done, restart_end);
  }
  count_rows(direct);
  count_rows(translated);
  CheckSameRows(first, direct, translated, report);
  ++report->attempted;
  if (!db.Equals(written)) {
    report->Fail("the archive recovered from the log differs from the "
                 "history written");
  }

  const chorel::Strategy kStrategies[] = {chorel::Strategy::kDirect,
                                          chorel::Strategy::kTranslated};
  std::vector<std::optional<Result<lorel::QueryResult>>> answers(
      2 * corpus.size());
  for (size_t k = 0; k < kSweepsPerEpoch; ++k) {
    const Window window = k % 5 != 4    ? Window::kNone
                          : k % 10 == 4 ? Window::kAsOf
                                        : Window::kBetween;
    const size_t from = rng() % times.size();
    const size_t to = std::min(times.size() - 1, from + kWindowSteps);
    const int64_t cpu_start = ProcessCpuNs();
    const int64_t start = NowNs();
    std::optional<Result<DoemDatabase>> reconstructed;
    std::optional<chorel::ChorelEngine> window_engine;
    chorel::ChorelEngine* target = &engine;
    if (window != Window::kNone) {
      reconstructed.emplace(window == Window::kAsOf
                                ? store::AsOf(db, times[from])
                                : store::Between(db, times[from], times[to]));
      if (ledger != nullptr) {
        ledger->Span("store.time_travel", kNoSpan, start, NowNs(),
                     times[from]);
      }
      ++report->attempted;
      if (!reconstructed->ok()) {
        report->Fail("reconstructing a window: " +
                     reconstructed->status().ToString());
        continue;
      }
      window_engine.emplace(**reconstructed, engine_options);
      target = &*window_engine;
    }
    for (size_t i = 0; i < order.size(); ++i) {
      for (size_t s = 0; s < 2; ++s) {
        const int64_t run_start = NowNs();
        answers[2 * i + s].emplace(
            target->Run(corpus[order[i]], kStrategies[s], eval_options));
        const int64_t run_end = NowNs();
        tally->query_us.Add(Us(run_end - run_start));
        if (ledger != nullptr) {
          ledger->Span(std::string("chorel.query_") +
                           StrategyName(kStrategies[s]),
                       kNoSpan, run_start, run_end);
        }
      }
    }
    const int64_t end = NowNs();
    tally->sweep_us.Add(Us(end - start));
    const double sweep_cpu_us = Us(ProcessCpuNs() - cpu_start);
    tally->sweep_cpu_us.Add(sweep_cpu_us);
    tally->cost.AddOp(sweep_cpu_us);
    tally->busy_ns += end - start;
    for (size_t i = 0; i < order.size(); ++i) {
      count_rows(*answers[2 * i]);
      count_rows(*answers[2 * i + 1]);
      CheckSameRows(corpus[order[i]], *answers[2 * i], *answers[2 * i + 1],
                    report);
    }
    tally->cost.Reference();
  }
  tally->cost.EndEpoch();

  if (ledger != nullptr) {
    ledger->Count("lorel.nodes_visited",
                  static_cast<double>(stats.nodes_visited));
    ledger->Count("vm.compiles",
                  static_cast<double>(metrics.CounterValue("vm.compiles")));
    ledger->Count("vm.compile_fallbacks",
                  static_cast<double>(
                      metrics.CounterValue("vm.compile_fallbacks")));
  }
  if (ledger != nullptr && replay_history) {
    // Recovery replays every delta through ApplyChangeSet; time that
    // layer on a side copy built from the same base and history.
    ++report->attempted;
    auto side = DoemDatabase::FromSnapshot(base);
    Status replay = side.ok() ? Status::OK() : side.status();
    for (const HistoryStep& step : history.steps()) {
      if (!replay.ok()) break;
      const int64_t start = NowNs();
      replay = side->ApplyChangeSet(step.time, step.changes);
      ledger->Span("doem.apply", kNoSpan, start, NowNs(), step.time);
    }
    if (!replay.ok() || !side->Equals(written)) {
      report->Fail("replaying the history does not reproduce the archive");
    }
  }
  if (tally->peak_rss_mb == 0) tally->peak_rss_mb = PeakRssMb();
  return kSweepsPerEpoch;
}

}  // namespace

Report RunArchiveQuery(const RunArgs& args, Ledger* ledger) {
  Report report;
  ArchiveTally untraced;
  ArchiveTally traced;
  uint32_t epoch = 0;
  if (args.trace) {
    bool replay_history = true;
    RunEpochs(args.seconds, kMinOps, [&] {
      size_t ops = RunArchiveEpoch(args.seed, epoch++, ledger, replay_history,
                                   &traced, &report);
      replay_history = false;
      return ops;
    });
    RunArchiveEpoch(args.seed, epoch++, nullptr, false, &untraced, &report);
  } else {
    RunEpochs(args.seconds, kMinOps, [&] {
      return RunArchiveEpoch(args.seed, epoch++, nullptr, false, &untraced,
                             &report);
    });
  }

  const double busy_s = static_cast<double>(untraced.busy_ns) / 1e9;
  report.Set("setup_s", untraced.cost.setup_s().Median(), "s");
  report.Set("setup_cpu_s", untraced.setup_cpu_s.Median(), "s");
  report.Set("restart_ms", untraced.restart_ms.Median(), "ms");
  report.SetPercentile("query_p50_us", untraced.query_us, 50, "us");
  report.SetPercentile("query_p99_us", untraced.query_us, 99, "us");
  report.SetRatio("queries_per_s",
                  static_cast<double>(untraced.query_us.size()), busy_s,
                  "1/s");
  report.SetPercentile("sweep_p50_us", untraced.sweep_us, 50, "us");
  report.SetPercentile("sweep_p95_us", untraced.sweep_us, 95, "us");
  report.Set("peak_rss_mb", untraced.peak_rss_mb, "MB");
  report.SetPercentile("op_cpu_p50_us", untraced.sweep_cpu_us, 50, "us");
  report.SetPercentile("op_cpu_p95_us", untraced.sweep_cpu_us, 95, "us");
  report.SetPercentile("op_p50_ref", untraced.cost.relative(), 50, "ref");
  report.SetPercentile("op_p95_ref", untraced.cost.relative(), 95, "ref");
  report.Set("reference_us", untraced.cost.reference_us().Median(), "us");
  if (!args.trace) return report;

  report.SetMedian("doem.apply_us", *ledger, "doem.apply", "us");
  report.SetMedian("chorel.query_direct_us", *ledger, "chorel.query_direct",
                   "us");
  report.SetMedian("chorel.query_translated_us", *ledger,
                   "chorel.query_translated", "us");
  report.SetMedian("encoding.build_ms", *ledger, "encoding.build", "ms", 1e-3);
  report.SetRatio("vm.fallback_ratio", ledger->CountOf("vm.compile_fallbacks"),
                  ledger->CountOf("vm.compiles"), "ratio");
  report.SetRatio("lorel.rows_per_node_visited", ledger->CountOf("lorel.rows"),
                  ledger->CountOf("lorel.nodes_visited"), "ratio");
  report.SetMedian("store.recovery_ms", *ledger, "store.recovery", "ms", 1e-3);
  report.SetMedian("store.records_replayed", *ledger, "store.records_replayed",
                   "count");
  report.SetMedian("store.time_travel_us", *ledger, "store.time_travel", "us");
  report.Set("trace.overhead_us",
             traced.sweep_us.Median() - untraced.sweep_us.Median(), "us");
  return report;
}

}  // namespace qssbench
}  // namespace doem
