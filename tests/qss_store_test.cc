// QSS + durable store integration: a service that crashes and reopens
// over the same durable medium must resume polling from the persisted
// history and produce byte-identical histories, rows, and notifications
// to an uninterrupted run (oracle instances, tests/oracle.h); store
// failures surface without failing the poll; recovered histories answer
// time-travel queries.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "encoding/doem_text.h"
#include "oracle.h"
#include "qss/qss.h"
#include "store/fault_file.h"
#include "store/store.h"
#include "store/time_travel.h"
#include "testing/guide.h"

namespace doem {
namespace qss {
namespace {

using doem::testing::BuildGuide;
using doem::testing::GuideHistory;

Timestamp Day(int n) {  // Dec 30 1996 + n days
  return Timestamp(Timestamp::FromDate(1996, 12, 30).ticks + n);
}

using Store = oracle::Config::Store;

// The paper's guide (Example 2.3) polled nightly from Day(0), one
// oracle op per poll: `days` polls in all.
oracle::Scenario GuideScenario(int days) {
  oracle::Scenario s;
  s.source = oracle::Scenario::Source::kPaperGuide;
  s.start = Day(0);
  s.Sub("Restaurants", "", 1);
  s.Advance({0});
  for (int d = 1; d < days; ++d) s.Advance({1});
  return s;
}

const std::string kGroupKey = std::string("select guide.restaurant\x1f") + "1";

// ---- The crash/reopen differential ----------------------------------------

// A service that crashes after any poll — or before the first — and
// reopens over the surviving medium matches an uninterrupted run
// without a store, byte for byte.
TEST(QssStoreTest, CrashAndReopenIsByteIdenticalToUninterruptedRun) {
  const oracle::Scenario s = GuideScenario(6);
  const oracle::Output ref = oracle::Execute(s, {});
  ASSERT_EQ(ref.groups.at(kGroupKey).polls.size(), 6u);
  ASSERT_FALSE(ref.notifications.empty());
  oracle::ExpectSame(s, {}, ref, {.store = Store::kMemory});
  for (size_t crash_at = 0; crash_at <= 6; ++crash_at) {
    const oracle::Output crashed = oracle::ExpectSame(
        s, {}, ref, {.store = Store::kCrash, .crash_at = crash_at});
    EXPECT_TRUE(crashed.crashed) << "crash_at=" << crash_at;
  }
}

// A keyed filter whose membership changes drops an object at one poll
// and brings it back, with its id, at a later one. Under kTwoSnapshots
// each poll starts the history over at R_{k-1}, so the ids deleted
// before it can be created again: the group never fails, and a group
// reopened after a crash polls exactly as an uninterrupted one.
TEST(QssStoreTest, TwoSnapshotGroupReadmitsADroppedObject) {
  // Bangkok's price (n1) goes 10 -> 20 -> 10 -> 20 -> 10.
  OemHistory script;
  for (int d = 1; d <= 4; ++d) {
    ASSERT_TRUE(
        script.Append(Day(d), {ChangeOp::UpdNode(1, Value::Int(d % 2 ? 20 : 10))})
            .ok());
  }
  oracle::Scenario s = GuideScenario(6);
  s.script = script;
  s.retention = HistoryRetention::kTwoSnapshots;
  s.subs[0].where = "guide.restaurant.price < 15";
  const oracle::Output ref = oracle::Execute(s, {});
  ASSERT_EQ(ref.groups.size(), 1u);
  const oracle::GroupOutcome& group = ref.groups.begin()->second;
  EXPECT_EQ(group.polls.size(), 6u);
  EXPECT_EQ(group.health.polls_failed, 0u);
  EXPECT_TRUE(ref.op_errors.empty());
  // Bangkok is created at Day(0) and re-created at Day(2) and Day(4).
  ASSERT_EQ(ref.notifications.size(), 3u);
  for (size_t crash_at = 0; crash_at <= 6; ++crash_at) {
    const oracle::Output crashed = oracle::ExpectSame(
        s, {}, ref, {.store = Store::kCrash, .crash_at = crash_at});
    EXPECT_TRUE(crashed.crashed) << "crash_at=" << crash_at;
  }
}

TEST(QssStoreTest, TornLastRecordIsRepolledDeterministically) {
  const oracle::Scenario s = GuideScenario(6);
  const oracle::Output ref = oracle::Execute(s, {});
  // Crash after the Day(2) poll and tear the last committed record: the
  // medium now holds one poll fewer than the process delivered before
  // dying. Recovery drops the torn poll; the reopened service re-polls
  // that tick and must rebuild the identical history (at-least-once
  // delivery: the re-polled tick's notification, if any, is delivered
  // again, so only histories and polling times are compared).
  store::MemoryStoreManager medium;
  const oracle::Hooks hooks{&medium, [&medium] {
    store::MemoryFile* file = medium.file(kGroupKey);
    ASSERT_FALSE(file->data().empty());
    file->mutable_data()->resize(file->data().size() - 3);
  }};
  const oracle::Output resumed = oracle::Execute(
      s, {.store = Store::kCrash, .crash_at = 3}, hooks);
  ASSERT_TRUE(resumed.crashed);
  EXPECT_EQ(resumed.groups.at(kGroupKey).history,
            ref.groups.at(kGroupKey).history);
  EXPECT_EQ(resumed.groups.at(kGroupKey).polls,
            ref.groups.at(kGroupKey).polls);
}

TEST(QssStoreTest, ResumeDoesNotRepollCommittedTicks) {
  store::MemoryStoreManager manager;
  oracle::Execute(GuideScenario(3), {.store = Store::kMemory},
                  {.medium = &manager});

  // A service reopened at Day(2) advances to Day(2), then Day(3): every
  // tick up to Day(2) is already committed, so only Day(3) polls.
  oracle::Scenario resumed = GuideScenario(2);
  resumed.start = Day(2);
  const oracle::Output run = oracle::Execute(
      resumed, {.store = Store::kMemory}, {.medium = &manager});
  EXPECT_EQ(run.report.polls_attempted, 1u);
  EXPECT_EQ(run.groups.at(kGroupKey).polls.size(), 4u);
  const std::string day3 = "Restaurants@" + std::to_string(Day(3).ticks);
  for (const std::string& note : run.notifications) {
    EXPECT_EQ(note.rfind(day3, 0), 0u) << note;
  }
}

// A server shut down through its destructor closes its connections,
// which retires their groups; a new server over the same directory
// resumes each group's history.
TEST(QssStoreTest, ServerShutdownKeepsTheDurableHistory) {
  store::DirectoryStoreManager disk(::testing::TempDir() +
                                    "/doem_qss_server_shutdown");
  std::remove(disk.PathFor(kGroupKey).c_str());
  const oracle::Config wire{.store = Store::kMemory,
                            .front_end = oracle::Config::FrontEnd::kWire};
  oracle::Execute(GuideScenario(3), wire, {.medium = &disk});

  oracle::Scenario reopened = GuideScenario(2);
  reopened.start = Day(2);
  const oracle::Output run =
      oracle::Execute(reopened, wire, {.medium = &disk});
  EXPECT_EQ(run.report.polls_attempted, 1u) << "only Day(3) is new";
  EXPECT_EQ(run.groups.at(kGroupKey).polls.size(), 4u);
  EXPECT_EQ(run.groups.at(kGroupKey).history,
            oracle::Execute(GuideScenario(4), {}).groups.at(kGroupKey).history);
  std::remove(disk.PathFor(kGroupKey).c_str());
}

// ---- Store failures surface without failing the poll -----------------------

/// A manager whose stores run over a fault-injecting file, so tests can
/// crash the durable medium under a live service.
class FaultyStoreManager : public store::StoreManager {
 public:
  Result<std::unique_ptr<store::Store>> OpenStore(
      const std::string& /*key*/) override {
    fault_ = std::make_unique<store::FaultInjectingFile>(&inner_);
    return store::Store::Open(fault_.get(), store::StoreOptions{});
  }

  store::MemoryFile* inner() { return &inner_; }
  store::FaultInjectingFile* fault() { return fault_.get(); }

 private:
  store::MemoryFile inner_;
  std::unique_ptr<store::FaultInjectingFile> fault_;
};

TEST(QssStoreTest, StoreFailureSurfacesAsStoreErrorAndPollStands) {
  ScriptedSource source(BuildGuide().db, GuideHistory());
  FaultyStoreManager manager;
  QssOptions options;
  options.durability.store = &manager;
  QuerySubscriptionService qss(&source, Day(0), options);
  size_t notified = 0;
  ASSERT_TRUE(qss.Subscribe(oracle::ToSubscription({"Restaurants", "", "", 1}),
                            [&](const Notification&) { ++notified; })
                  .ok());

  PollReport report;
  ASSERT_TRUE(qss.AdvanceTo(Day(0), &report).ok());
  ASSERT_TRUE(report.errors.empty());
  EXPECT_EQ(notified, 1u);
  uint64_t committed = manager.inner()->data().size();

  // The disk dies mid-append of the next poll's record.
  manager.fault()->CrashAtOffset(committed + 4);
  ASSERT_TRUE(qss.AdvanceTo(Day(1), &report).ok());
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_EQ(report.errors[0].kind, PollError::Kind::kStore);
  // Availability over durability: the poll committed in memory.
  EXPECT_EQ(report.polls_ok, 2u);
  EXPECT_EQ(qss.PollingTimes("Restaurants").size(), 2u);

  // Later polls keep working (and keep reporting the broken store).
  ASSERT_TRUE(qss.AdvanceTo(Day(2), &report).ok());
  EXPECT_EQ(report.errors.size(), 2u);
  EXPECT_EQ(report.errors[1].kind, PollError::Kind::kStore);
  EXPECT_EQ(qss.PollingTimes("Restaurants").size(), 3u);

  // A reopened service recovers the committed prefix (1 poll) and
  // catches up deterministically over the surviving medium.
  store::MemoryStoreManager clean;
  *clean.file(kGroupKey)->mutable_data() = manager.inner()->data();
  oracle::Scenario reopened = GuideScenario(1);
  reopened.start = Day(2);
  const oracle::Output run = oracle::Execute(
      reopened, {.store = Store::kMemory}, {.medium = &clean});
  EXPECT_TRUE(run.report.errors.empty());
  EXPECT_EQ(run.report.polls_ok, 2u) << "Day(1) and Day(2) caught up";
  EXPECT_EQ(run.groups.at(kGroupKey).history,
            WriteDoemText(*qss.History("Restaurants")));
}

// ---- Time travel over a recovered history ----------------------------------

TEST(QssStoreTest, ChorelQueriesRunAgainstRecoveredPastIntervals) {
  store::MemoryStoreManager manager;
  oracle::Execute(GuideScenario(6), {.store = Store::kMemory},
                  {.medium = &manager});

  // A later process recovers the history straight from the store, with
  // no QSS involved.
  auto s = manager.OpenStore(kGroupKey);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  ASSERT_TRUE((*s)->has_state());
  std::vector<Timestamp> polls = (*s)->recovered_times();
  ASSERT_EQ(polls.size(), 6u);
  DoemDatabase db = (*s)->TakeRecoveredDb();

  // As of the first poll, two restaurants exist; Hakata appears later.
  auto at_start = store::AsOf(db, polls[0]);
  ASSERT_TRUE(at_start.ok());
  auto rows = chorel::RunChorel(*at_start, "select Restaurants.restaurant",
                                chorel::Strategy::kDirect);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows.size(), 2u);

  auto at_end = store::AsOf(db, polls.back());
  ASSERT_TRUE(at_end.ok());
  auto rows_end = chorel::RunChorel(*at_end, "select Restaurants.restaurant",
                                    chorel::Strategy::kDirect);
  ASSERT_TRUE(rows_end.ok());
  EXPECT_EQ(rows_end->rows.size(), 3u);

  // Between(t1, end]: only Hakata's creation falls inside the window, so
  // a windowed cre query returns exactly it (the initial two restaurants
  // were created at t1 relative to the empty R0).
  auto window = store::Between(db, polls[0], polls.back());
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  auto created = chorel::RunChorel(
      *window, "select Restaurants.restaurant<cre at T>",
      chorel::Strategy::kDirect);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EXPECT_EQ(created->rows.size(), 1u);

  // The full-range window is the whole history.
  auto whole = store::Between(db, Timestamp::NegativeInfinity(),
                              Timestamp::PositiveInfinity());
  ASSERT_TRUE(whole.ok());
  EXPECT_TRUE(whole->Equals(db));
}

}  // namespace
}  // namespace qss
}  // namespace doem
