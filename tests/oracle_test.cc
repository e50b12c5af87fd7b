// The differential oracle over the whole option lattice (DESIGN.md §7):
// seeded scenarios, each compared against the reference configuration
// at several lattice points that cross the options; pinned seeds of
// crossings that once diverged; index seeding on the filter scenario;
// and the oracle's own self-check.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "oracle.h"

namespace doem {
namespace oracle {
namespace {

using Exec = Config::Executor;
using Front = Config::FrontEnd;
using Store = Config::Store;

constexpr uint32_t kSeeds = 24;

/// The lattice points a seed's scenario is run at.
std::vector<Config> LatticePoints(uint32_t seed) {
  std::mt19937 rng(seed * 7919);
  std::vector<Config> points(4);
  for (Config& c : points) {
    c.executor = static_cast<Exec>(rng() % 3);
    c.incremental = rng() % 2;
    c.vm = rng() % 2;
    c.store = static_cast<Store>(rng() % 3);
    c.crash_at = rng() % 5;
    c.obs = rng() % 2;
    c.front_end = static_cast<Front>(rng() % 3);
  }
  // Drawn last, so the dimensions above keep their draws.
  for (Config& c : points) c.seed_filter_from_index = rng() % 2;
  return points;
}

class OracleLatticeTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(OracleLatticeTest, EveryLatticePointMatchesTheReference) {
  const Scenario s = DrawSweepScenario(GetParam());
  std::map<std::string, Output> refs;
  for (const Config& c : LatticePoints(GetParam())) {
    const Config r = ReferenceFor(s, c);
    auto [ref, fresh] = refs.try_emplace(r.ToString());
    if (fresh) ref->second = Execute(s, r);
    ExpectSame(s, r, ref->second, c);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleLatticeTest,
                         ::testing::Range(1u, kSeeds + 1));

// Every value of every dimension is compared against the reference in
// some pair, and some pair crosses three or more options at once.
TEST(OracleLatticeTest, PlanCoversEveryOptionValue) {
  std::map<std::string, int> seen;
  int max_crossed = 0;
  for (uint32_t seed = 1; seed <= kSeeds; ++seed) {
    for (const Config& c : LatticePoints(seed)) {
      ++seen["executor" + std::to_string(static_cast<int>(c.executor))];
      ++seen["incremental" + std::to_string(c.incremental)];
      ++seen["vm" + std::to_string(c.vm)];
      ++seen["seed" + std::to_string(c.seed_filter_from_index)];
      ++seen["store" + std::to_string(static_cast<int>(c.store))];
      ++seen["obs" + std::to_string(c.obs)];
      ++seen["front_end" + std::to_string(static_cast<int>(c.front_end))];
      max_crossed = std::max(max_crossed, c.NonReference());
    }
  }
  EXPECT_EQ(seen.size(), 3u + 2 + 2 + 2 + 3 + 2 + 3);
  EXPECT_GE(max_crossed, 3);
}

// The sweep holds two-snapshot scenarios whose keyed groups filter on a
// price bound, so restaurants drop out and are admitted again.
TEST(OracleLatticeTest, SweepDrawsReAdmittingGroups) {
  int readmitting = 0;
  for (uint32_t seed = 1; seed <= kSeeds; ++seed) {
    const Scenario s = DrawSweepScenario(seed);
    readmitting += s.retention == qss::HistoryRetention::kTwoSnapshots &&
                   s.preserve_ids && !s.subs.front().where.empty();
  }
  EXPECT_GE(readmitting, 2);
}

// Every option off the reference at once — pool × caches × VM × index
// seeding × crash and reopen × observability × wire — over faults and
// churn.
TEST(OracleCrossingTest, AllOptionsAtOnceMatchTheReference) {
  const Config all{.executor = Exec::kPool, .incremental = true, .vm = true,
                   .seed_filter_from_index = true, .store = Store::kCrash,
                   .crash_at = 2, .obs = true, .front_end = Front::kWire};
  for (uint32_t seed : {4u, 37u}) {
    const Scenario s = DrawScenario(seed);
    ASSERT_FALSE(s.faults.empty());
    const Config ref = ReferenceFor(s, all);
    const Output run = ExpectSame(s, ref, Execute(s, ref), all);
    EXPECT_TRUE(run.crashed) << "seed " << seed;
  }
}

// Crossings no single-option comparison covers. Each diverged from the
// reference until the program (or, for a retired group, the choice of
// reference) was fixed.
TEST(OracleRegressionTest, RetiredGroupResumesItsDurableHistory) {
  // Seeds 17 and 21 retire a group and subscribe it again. With a
  // store it resumes its history, so it differs from a run without one;
  // a crash and reopen must not change that.
  for (uint32_t seed : {17u, 21u}) {
    const Scenario s = DrawScenario(seed);
    ASSERT_TRUE(s.Resurrects());
    const Config memory{.store = Store::kMemory};
    const Output ref = Execute(s, memory);
    EXPECT_NE(ref.Digest(), Execute(s, {}).Digest()) << "seed " << seed;
    ExpectSame(s, memory, ref,
               {.executor = Exec::kPool, .incremental = true,
                .store = Store::kCrash, .crash_at = 3, .obs = true});
  }
}

TEST(OracleRegressionTest, TwoSnapshotRecoveryKeepsBurnedIds) {
  // Seed 35: the two-snapshot rebase keeps dropped nodes' ids burned;
  // a recovered checkpoint handed them out again.
  const Scenario s = DrawScenario(35);
  ASSERT_EQ(s.retention, qss::HistoryRetention::kTwoSnapshots);
  ExpectSame(s, {}, Execute(s, {}),
             {.executor = Exec::kPool, .incremental = true, .vm = true,
              .store = Store::kCrash, .crash_at = 4});
}

TEST(OracleRegressionTest, ExplicitPollRestartsTheCadence) {
  // Seeds 10 and 19: after a PollNow or source trigger the live
  // schedule kept its old grid while a reopened group resumed one
  // interval after its last poll.
  for (uint32_t seed : {10u, 19u}) {
    const Scenario s = DrawScenario(seed);
    ExpectSame(s, {}, Execute(s, {}),
               {.executor = Exec::kSerial, .vm = true, .store = Store::kCrash,
                .crash_at = seed == 10 ? 3u : 4u, .obs = true});
  }
}

// Index seeding changes only speed: seeded VM filters over one- and
// two-poll windows match the unseeded walker byte for byte (DESIGN §6c).
TEST(OracleSeedingTest, SeedingFlipIsByteIdentical) {
  for (chorel::Strategy strategy :
       {chorel::Strategy::kDirect, chorel::Strategy::kTranslated}) {
    for (int window : {1, 2}) {
      Scenario s = FilterScenario(16, 12);
      s.strategy = strategy;
      for (SubSpec& sub : s.subs) sub.window = window;
      ExpectSame(s, {}, Execute(s, {}),
                 {.vm = true, .seed_filter_from_index = true});
    }
  }
}

// The oracle notices a single dropped notification, and says where.
TEST(OracleSelfCheckTest, DroppedNotificationIsAMismatch) {
  const Scenario s = FilterScenario(12, 10);
  Output run = Execute(s, {});
  ASSERT_GT(run.notifications.size(), 2u);
  const std::string digest = run.Digest();
  EXPECT_EQ(Mismatch(s, {}, digest, {}, Execute(s, {}).Digest()), "");
  run.notifications.erase(run.notifications.begin() + 1);
  const std::string mismatch = Mismatch(s, {}, digest, {}, run.Digest());
  EXPECT_NE(mismatch.find("first difference at digest line"),
            std::string::npos)
      << mismatch;
  EXPECT_NE(mismatch.find("seed 0"), std::string::npos) << mismatch;
}

}  // namespace
}  // namespace oracle
}  // namespace doem
