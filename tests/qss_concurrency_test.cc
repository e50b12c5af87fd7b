// The parallel poll engine (DESIGN.md §6b): the executors themselves,
// and the oracle instances proving that whatever executor runs the
// fetch→diff stage, histories, polling times, health (including
// MissedPoll logs under injected faults), reports, and notification
// order are byte-identical to an inline run.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "oracle.h"
#include "qss/executor.h"
#include "qss/qss.h"

namespace doem {
namespace qss {
namespace {

// ------------------------------------------------------------- Executor

TEST(ExecutorTest, SerialExecutorRunsInIndexOrder) {
  SerialExecutor exec;
  std::vector<size_t> order;
  exec.ParallelFor(5, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(exec.concurrency(), 1);
}

TEST(ExecutorTest, ThreadPoolRunsEveryTaskExactlyOnce) {
  ThreadPoolExecutor pool(4);
  EXPECT_EQ(pool.concurrency(), 4);
  constexpr size_t kTasks = 100;  // more tasks than threads
  std::vector<int> hits(kTasks, 0);
  pool.ParallelFor(kTasks, [&](size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(kTasks));
  EXPECT_EQ(*std::min_element(hits.begin(), hits.end()), 1);
  EXPECT_EQ(*std::max_element(hits.begin(), hits.end()), 1);
}

TEST(ExecutorTest, ThreadPoolIsReusableAcrossBatches) {
  ThreadPoolExecutor pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> sum{0};
    pool.ParallelFor(7, [&](size_t i) { sum += static_cast<int>(i); });
    EXPECT_EQ(sum.load(), 21);
  }
  pool.ParallelFor(0, [](size_t) { FAIL() << "no task for n == 0"; });
}

TEST(ExecutorTest, ThreadPoolClampsToAtLeastOneThread) {
  ThreadPoolExecutor pool(0);
  EXPECT_EQ(pool.concurrency(), 1);
  std::atomic<int> ran{0};
  pool.ParallelFor(3, [&](size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 3);
}

TEST(ExecutorTest, ThreadPoolTasksGenuinelyOverlap) {
  // Two tasks rendezvous: each signals its start and waits (bounded) for
  // the other. Only an executor running them concurrently completes
  // without hitting the timeout.
  ThreadPoolExecutor pool(2);
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  int met = 0;
  pool.ParallelFor(2, [&](size_t) {
    std::unique_lock<std::mutex> lock(mu);
    ++started;
    cv.notify_all();
    if (cv.wait_for(lock, std::chrono::seconds(30),
                    [&] { return started == 2; })) {
      ++met;
    }
  });
  EXPECT_EQ(met, 2) << "tasks never ran concurrently";
}

// ------------------------------------- Serial-vs-parallel determinism
//
// Runs of one scenario on the inline, serial and pooled executors must
// agree byte for byte: oracle instances (tests/oracle.h).

using Exec = oracle::Config::Executor;

// Four poll groups with distinct polling queries (so fault specs can be
// pinned to one group each — see FaultInjectingSource) and co-prime
// frequencies, producing waves of 1..4 groups; one group has two
// members. Faults: a quarantine-length outage on the price group, two
// truncated snapshots on the name group, and deadline-busting slow polls
// on the address group.
oracle::Scenario FaultScenario(bool preserve_ids, bool with_faults) {
  oracle::Scenario s;
  s.restaurants = 20;
  s.steps = 14;
  s.ops_per_step = 4;
  s.preserve_ids = preserve_ids;
  s.Sub("Names", "name", 1);
  s.Sub("NamesToo", "name", 1);  // second member of the Names group
  s.Sub("Prices", "price", 2);
  s.Sub("Addresses", "address", 3);
  s.Sub("Everything", "", 1);
  s.Advance({1, 3, 1, 4, 2, 2});
  if (with_faults) {
    // Five consecutive failing calls = two failed polls (two attempts
    // each) plus a failed half-open probe: with a 3-tick cool-down the
    // price group (2-tick interval) gets quarantined twice and records
    // scheduled polls as missed.
    s.faults = {
        {.skip = 2, .count = 5, .error = Status::Unavailable("outage"),
         .query_contains = ".price"},
        {.kind = FaultKind::kGarbage, .skip = 1, .count = 2,
         .query_contains = ".name"},
        {.kind = FaultKind::kSlowPoll, .skip = 3, .count = 2,
         .duration_ticks = 9, .query_contains = ".address"},
    };
  }
  s.tolerance.retry = {.max_attempts = 2, .backoff_base_ticks = 1,
                       .poll_deadline_ticks = 5};
  s.tolerance.quarantine_after = 2;
  s.tolerance.quarantine_cooldown_ticks = 3;
  return s;
}

TEST(QssConcurrencyTest, ParallelRunIsByteIdenticalToSerialUnderFaults) {
  const oracle::Scenario s = FaultScenario(true, true);
  const oracle::Output ref = oracle::Execute(s, {});
  for (Exec e : {Exec::kSerial, Exec::kPool}) {
    oracle::ExpectSame(s, {}, ref, {.executor = e});
  }
  // The scenario actually exercised the fault machinery.
  EXPECT_GT(ref.report.polls_failed, 0u);
  EXPECT_GT(ref.report.polls_missed, 0u);
  EXPECT_GT(ref.report.retries, 0u);
  EXPECT_FALSE(ref.report.errors.empty());
  EXPECT_EQ(ref.group_count, 4u);
}

TEST(QssConcurrencyTest, StructuralSourceStaysDeterministicInParallel) {
  // preserve_ids = false: every poll re-packages with shifted ids, which
  // are per polling query precisely so thread interleavings cannot leak
  // into the histories (see ScriptedSource).
  const oracle::Scenario s = FaultScenario(false, false);
  const oracle::Output ref = oracle::Execute(s, {});
  oracle::ExpectSame(s, {}, ref, {.executor = Exec::kPool});
  EXPECT_EQ(ref.report.polls_failed, 0u);
  EXPECT_GT(ref.report.polls_ok, 0u);
}

TEST(QssConcurrencyTest, TimingCountersAreObservable) {
  oracle::Scenario s;
  s.restaurants = 20;
  s.steps = 6;
  s.ops_per_step = 4;
  for (const char* leaf : {"name", "price"}) s.Sub(leaf, leaf, 1);
  s.Advance({5});
  const PollReport report =
      oracle::Execute(s, {.executor = Exec::kPool}).report;
  EXPECT_EQ(report.polls_ok, 12u);
  EXPECT_GT(report.fetch_ns, 0) << "fetch phase must be accounted";
  EXPECT_GT(report.diff_ns, 0) << "diff phase must be accounted";
  EXPECT_GT(report.apply_ns, 0) << "apply phase must be accounted";
}

TEST(QssConcurrencyTest, PollNowAndSourceTriggerMatchSerialUnderPool) {
  oracle::Scenario s;
  s.restaurants = 10;
  s.steps = 8;
  for (const char* leaf : {"name", "price", "address"}) s.Sub(leaf, leaf, 2);
  s.Advance({2, 1});
  // Tick 3: nothing scheduled; the source announces a change instead.
  s.ops.push_back({.kind = oracle::Op::Kind::kSourceChanged});
  s.Advance({2});
  s.ops.push_back({.kind = oracle::Op::Kind::kPollNow, .sub = 1});  // price
  oracle::ExpectSame(s, {}, oracle::Execute(s, {}), {.executor = Exec::kPool});
}

}  // namespace
}  // namespace qss
}  // namespace doem
