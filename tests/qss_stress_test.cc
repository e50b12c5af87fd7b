// Seeded stress test of the parallel poll engine: randomized frequency
// specs and fault schedules (src/testing/generators) drive the reference
// run and a 4-thread pool run of one oracle scenario (tests/oracle.h)
// through identical tick sequences. Every run must satisfy the
// scheduling invariants, and the two must agree byte for byte.

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <vector>

#include "oracle.h"
#include "testing/generators.h"

namespace doem {
namespace qss {
namespace {

// Distinct polling-query leaves (one poll group each); ".leaf" pins a
// FaultSpec to exactly one of them.
constexpr const char* kLeaves[] = {"name", "price", "address", "parking"};

oracle::Scenario StressScenario(uint32_t seed) {
  std::mt19937 rng(seed);
  oracle::Scenario s;
  s.seed = seed;
  const size_t n_subs = 2 + rng() % 3;  // 2..4 groups
  std::vector<std::string> scopes;
  for (size_t i = 0; i < n_subs; ++i) {
    s.Sub("S" + std::to_string(i) + "_" + kLeaves[i], kLeaves[i],
          testing::RandomFrequencySpec(&rng, 4).interval_ticks);
    scopes.push_back(std::string(".") + kLeaves[i]);
  }
  s.faults = testing::RandomFaultSchedule(scopes, &rng);
  for (size_t i = 0; i < 6; ++i) {
    s.Advance({1 + static_cast<int64_t>(rng() % 5)});
  }
  s.guide_seed = seed + 1;
  s.steps = 20;
  s.history_seed = seed + 2;
  s.preserve_ids = rng() % 2 == 0;
  s.tolerance.retry = {.max_attempts = 1 + static_cast<int>(seed % 3),
                       .backoff_base_ticks = 1,
                       // RandomFaultSchedule slow > 0
                       .poll_deadline_ticks = 4};
  s.tolerance.quarantine_after = 1 + static_cast<int>(seed % 2);
  s.tolerance.quarantine_cooldown_ticks = 1 + seed % 3;
  return s;
}

void ExpectInvariants(const oracle::Scenario& s, const oracle::Output& out) {
  EXPECT_EQ(out.group_count, s.subs.size());
  EXPECT_TRUE(out.op_errors.empty());
  // Clock: the run lands exactly on the sum of its jumps, fault or no
  // fault.
  int64_t jumped = 0;
  for (const oracle::Op& op : s.ops) jumped += op.ticks;
  EXPECT_EQ(out.end.ticks, s.start.ticks + jumped);

  size_t sum_attempted = 0, sum_ok = 0, sum_failed = 0, sum_missed = 0,
         sum_retries = 0;
  for (const oracle::SubSpec& spec : s.subs) {
    const oracle::GroupOutcome& g = out.groups.at(out.group_of.at(spec.name));
    const PollHealth& h = g.health;
    const size_t missed = h.missed.size() + h.missed_dropped;

    // Poll accounting: attempted = succeeded + failed, and every
    // success produced exactly one polling time.
    EXPECT_EQ(h.polls_attempted, h.polls_succeeded + h.polls_failed)
        << spec.name;
    EXPECT_EQ(g.polls.size(), h.polls_succeeded) << spec.name;
    for (size_t i = 1; i < g.polls.size(); ++i) {
      EXPECT_LT(g.polls[i - 1], g.polls[i])
          << spec.name << ": polling times must be strictly increasing";
    }

    // Schedule accounting: every scheduled tick was attempted or
    // quarantined (none lost, none invented).
    const int64_t span = out.end.ticks - s.start.ticks;
    const size_t scheduled = static_cast<size_t>(span / spec.interval + 1);
    EXPECT_EQ(h.polls_attempted + missed, scheduled) << spec.name;
    if (h.state != CircuitState::kOpen) {
      EXPECT_LT(h.consecutive_failures, s.tolerance.quarantine_after + 1)
          << spec.name;
    }

    // No lost snapshots: every DOEM annotation timestamp is one of the
    // group's polling times.
    const std::set<Timestamp> poll_set(g.polls.begin(), g.polls.end());
    for (Timestamp t : g.annotation_times) {
      EXPECT_TRUE(poll_set.contains(t))
          << spec.name << ": annotation at " << t.ToString()
          << " has no corresponding poll";
    }
    sum_attempted += h.polls_attempted;
    sum_ok += h.polls_succeeded;
    sum_failed += h.polls_failed;
    sum_missed += missed;
    sum_retries += h.retries;
  }

  // Quarantine and poll counts aggregate exactly into the report.
  EXPECT_EQ(out.report.polls_attempted, sum_attempted);
  EXPECT_EQ(out.report.polls_ok, sum_ok);
  EXPECT_EQ(out.report.polls_failed, sum_failed);
  EXPECT_EQ(out.report.polls_missed, sum_missed);
  EXPECT_EQ(out.report.retries, sum_retries);
  EXPECT_EQ(out.report.notifications, out.notifications.size());
}

class QssStressTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(QssStressTest, InvariantsHoldAndTwinRunsAgree) {
  const oracle::Scenario s = StressScenario(GetParam());
  const oracle::Output ref = oracle::Execute(s, {});
  const oracle::Output pool = oracle::ExpectSame(
      s, {}, ref, {.executor = oracle::Config::Executor::kPool});
  ExpectInvariants(s, ref);
  ExpectInvariants(s, pool);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QssStressTest, ::testing::Range(0u, 12u));

}  // namespace
}  // namespace qss
}  // namespace doem
