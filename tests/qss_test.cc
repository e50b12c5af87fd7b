#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "oracle.h"
#include "qss/qss.h"
#include "testing/guide.h"

namespace doem {
namespace qss {
namespace {

using doem::testing::BuildGuide;
using doem::testing::GuideHistory;
using doem::testing::GuideT1;

const Timestamp kDec30 = Timestamp::FromDate(1996, 12, 30);

/// A subscription polled every `interval` days.
Subscription Sub(const std::string& name, const std::string& poll,
                 const std::string& filter, int64_t interval = 1) {
  return {name, "", {interval, ""}, poll, filter};
}

/// The paper's guide (Example 2.3) polled from `start` under `faults`, on
/// the oracle driver (tests/oracle.h), which passes a PollReport to every
/// call.
oracle::Scenario PaperGuide(Timestamp start,
                            std::vector<FaultSpec> faults = {}) {
  oracle::Scenario s;
  s.source = oracle::Scenario::Source::kPaperGuide;
  s.start = start;
  s.faults = std::move(faults);
  return s;
}

const oracle::GroupOutcome& GroupOf(const oracle::Output& run,
                                    const std::string& name) {
  return run.groups.at(run.group_of.at(name));
}

/// `name`'s notifications, "name@tick#index\n" + one line per row.
std::vector<std::string> NotesOf(const oracle::Output& run,
                                 const std::string& name) {
  std::vector<std::string> notes;
  for (const std::string& n : run.notifications) {
    if (n.rfind(name + "@", 0) == 0) notes.push_back(n);
  }
  return notes;
}

size_t Rows(const std::string& note) {
  return std::count(note.begin(), note.end(), '\n') - 1;
}

/// Whether `note` is from the poll at `t` (and, if given, poll `index`).
bool PolledAt(const std::string& note, Timestamp t, size_t index = 0) {
  const std::string head = note.substr(0, note.find('\n'));
  const std::string at = "@" + std::to_string(t.ticks) + "#";
  return head.find(at) != std::string::npos &&
         (index == 0 || head.ends_with(at + std::to_string(index)));
}

// ------------------------------------------------------------- Frequency

TEST(FrequencyTest, PaperExamples) {
  auto f1 = FrequencySpec::Parse("every 10 minutes", TickUnit::kMinute);
  ASSERT_TRUE(f1.ok()) << f1.status().ToString();
  EXPECT_EQ(f1->interval_ticks, 10);

  auto f2 = FrequencySpec::Parse("every night at 11:30pm");
  ASSERT_TRUE(f2.ok()) << f2.status().ToString();
  EXPECT_EQ(f2->interval_ticks, 1);

  auto f3 = FrequencySpec::Parse("every 2 weeks");
  ASSERT_TRUE(f3.ok());
  EXPECT_EQ(f3->interval_ticks, 14);

  auto f4 = FrequencySpec::Parse("every 3 ticks", TickUnit::kMinute);
  ASSERT_TRUE(f4.ok());
  EXPECT_EQ(f4->interval_ticks, 3);

  auto f5 = FrequencySpec::Parse("every hour", TickUnit::kMinute);
  ASSERT_TRUE(f5.ok());
  EXPECT_EQ(f5->interval_ticks, 60);
}

TEST(FrequencyTest, Errors) {
  EXPECT_FALSE(FrequencySpec::Parse("daily").ok());
  EXPECT_FALSE(FrequencySpec::Parse("every 0 days").ok());
  EXPECT_FALSE(FrequencySpec::Parse("every fortnight").ok());
  EXPECT_FALSE(FrequencySpec::Parse("every 10 minutes", TickUnit::kDay).ok())
      << "minutes are finer than day ticks";
  EXPECT_FALSE(FrequencySpec::Parse("every day at").ok());
}

TEST(FrequencyTest, PollingTimes) {
  auto f = FrequencySpec::Parse("every 2 days");
  ASSERT_TRUE(f.ok());
  Timestamp start = Timestamp::FromDate(1996, 12, 30);
  EXPECT_EQ(f->FirstPoll(start), start);
  EXPECT_EQ(f->NextPoll(start).ticks, start.ticks + 2);
}

// ------------------------------------------------------------- Source

TEST(ScriptedSourceTest, AppliesScriptUpToPollTime) {
  ScriptedSource source(BuildGuide().db, GuideHistory());
  auto r1 = source.Poll("select guide.restaurant",
                        Timestamp::FromDate(1996, 12, 31));
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->Children(r1->root(), "restaurant").size(), 2u);

  auto r2 = source.Poll("select guide.restaurant", GuideT1());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->Children(r2->root(), "restaurant").size(), 3u)
      << "Hakata appears at t1";
}

TEST(ScriptedSourceTest, FreshIdsWhenNotPreserving) {
  ScriptedSource source(BuildGuide().db, OemHistory(), false);
  auto r1 = source.Poll("select guide.restaurant", Timestamp(0));
  auto r2 = source.Poll("select guide.restaurant", Timestamp(1));
  ASSERT_TRUE(r1.ok() && r2.ok());
  // Disjoint id spaces.
  for (NodeId n : r1->NodeIds()) {
    EXPECT_FALSE(r2->HasNode(n));
  }
}

// ----------------------------------------------- Example 6.1 end-to-end

class QssExample61 : public ::testing::TestWithParam<bool> {};
INSTANTIATE_TEST_SUITE_P(IdModes, QssExample61, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "KeyedSource"
                                             : "StructuralSource";
                         });

TEST_P(QssExample61, NewRestaurantNotifications) {
  // Example 6.1: subscription created Dec 30 1996; polls nightly; the
  // source changes per Example 2.2 on Jan 1.
  oracle::Scenario s = PaperGuide(kDec30);
  s.preserve_ids = GetParam();
  s.Sub("Restaurants", "", 1);
  s.Advance({0, 1, 1, 1});
  const oracle::Output run = oracle::Execute(s, {});
  ASSERT_EQ(run.notifications.size(), 2u);
  // Poll t1 = 30Dec96: both initial restaurants are "created" relative to
  // the empty R0, and t[-1] is negative infinity, so the user gets both.
  EXPECT_TRUE(PolledAt(run.notifications[0], kDec30, 1));
  EXPECT_EQ(Rows(run.notifications[0]), 2u);
  // Poll t2 = 31Dec96: source unchanged; annotations now fail T > t[-1];
  // no notification (the paper's t2 step). Poll t3 = 1Jan97: Hakata was
  // added; exactly one new restaurant. Poll t4: quiet again.
  EXPECT_TRUE(PolledAt(run.notifications[1], GuideT1(), 3));
  EXPECT_EQ(Rows(run.notifications[1]), 1u);

  // The subscription's DOEM database has a full history.
  EXPECT_TRUE(GroupOf(run, "Restaurants").feasible);
  EXPECT_EQ(GroupOf(run, "Restaurants").polls.size(), 4u);
}

TEST(QssTest, LyttonFilterOnContent) {
  // The Section 6 polling query with a content filter: only restaurants
  // with Lytton in their address are tracked at all.
  ScriptedSource source(BuildGuide().db, GuideHistory());
  QuerySubscriptionService qss(&source, kDec30);

  std::vector<Notification> log;
  ASSERT_TRUE(
      qss.Subscribe(
             Sub("LyttonRestaurants",
                 "select guide.restaurant "
                 "where guide.restaurant.address.# like \"%Lytton%\"",
                 "select LyttonRestaurants.restaurant<cre at T> "
                 "where T > t[-1]"),
             [&](const Notification& n) { log.push_back(n); })
          .ok());
  ASSERT_TRUE(qss.AdvanceTo(Timestamp::FromDate(1997, 1, 2)).ok());
  // First poll: the two Lytton restaurants. Hakata (no address) never
  // enters the polling result, so no further notifications.
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].result.rows.size(), 2u);
}

TEST(QssTest, UpdateNotificationWithOldAndNewValue) {
  ScriptedSource source(BuildGuide().db, GuideHistory());
  QuerySubscriptionService qss(&source, kDec30);

  std::vector<Notification> log;
  ASSERT_TRUE(qss.Subscribe(Sub("Prices", "select guide.restaurant",
                                "select N, OV, NV from Prices.restaurant R, "
                                "R.name N, R.price<upd at T from OV to NV> "
                                "where T > t[-1]"),
                            [&](const Notification& n) { log.push_back(n); })
                  .ok());
  ASSERT_TRUE(qss.AdvanceTo(Timestamp::FromDate(1997, 1, 3)).ok());
  // Only the Jan 1 price change triggers (10 -> 20 detected by the diff).
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].poll_time, GuideT1());
  ASSERT_EQ(log[0].result.rows.size(), 1u);
  EXPECT_EQ(log[0].result.rows[0][1].value, Value::Int(10));
  EXPECT_EQ(log[0].result.rows[0][2].value, Value::Int(20));
}

// Index seeding never reorders a notification's rows. One group polls
// four price siblings; poll 2 updates the last and poll 3 the first, so
// at poll 3 the t[-2] window's update postings run against the arc order.
TEST(QssTest, SeedingKeepsNotificationRowOrder) {
  OemDatabase base;
  const NodeId root = base.NewComplex();
  const NodeId p = base.NewComplex();
  ASSERT_TRUE(base.SetRoot(root).ok());
  ASSERT_TRUE(base.AddArc(root, "p", p).ok());
  std::vector<NodeId> prices;
  for (int64_t i = 1; i <= 4; ++i) {
    prices.push_back(base.NewInt(10 * i));
    ASSERT_TRUE(base.AddArc(p, "price", prices.back()).ok());
  }
  OemHistory script;
  ASSERT_TRUE(script
                  .Append(Timestamp(101),
                          {ChangeOp::UpdNode(prices[3], Value::Int(41))})
                  .ok());
  ASSERT_TRUE(script
                  .Append(Timestamp(102),
                          {ChangeOp::UpdNode(prices[0], Value::Int(11))})
                  .ok());

  std::vector<std::vector<std::string>> runs;
  for (bool seed : {false, true}) {
    ScriptedSource source(base, script);
    QssOptions options;
    options.acceleration.seed_filter_from_index = seed;
    QuerySubscriptionService qss(&source, Timestamp(100), options);
    std::vector<std::string> notes;
    ASSERT_TRUE(
        qss.Subscribe(Sub("S", "select p",
                          "select S.p.price<upd at T> where T > t[-2]"),
                      [&](const Notification& n) {
                        notes.push_back(std::to_string(n.poll_index) + "\n" +
                                        n.result.RowsToString());
                      })
            .ok());
    ASSERT_TRUE(qss.AdvanceTo(Timestamp(102)).ok());
    runs.push_back(std::move(notes));
  }
  EXPECT_EQ(runs[0], runs[1]);
  ASSERT_EQ(runs[1].size(), 2u);
  EXPECT_EQ(runs[1][1], "3\nprice=n" + std::to_string(prices[0]) +
                            "\nprice=n" + std::to_string(prices[3]) + "\n");
}

TEST(QssTest, DeletionVisibleViaRemAnnotation) {
  ScriptedSource source(BuildGuide().db, GuideHistory());
  QuerySubscriptionService qss(&source, kDec30);

  std::vector<Notification> log;
  ASSERT_TRUE(qss.Subscribe(Sub("Parking", "select guide.restaurant",
                                "select R from Parking.restaurant R, "
                                "R.<rem at T>parking P where T > t[-1]"),
                            [&](const Notification& n) { log.push_back(n); })
                  .ok());
  ASSERT_TRUE(qss.AdvanceTo(Timestamp::FromDate(1997, 1, 10)).ok());
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].poll_time, testing::GuideT3());
}

// ------------------------------------------------------ Service mechanics

TEST(QssTest, SubscribeValidation) {
  ScriptedSource source(BuildGuide().db, OemHistory());
  QuerySubscriptionService qss(&source, Timestamp(0));
  Subscription sub =
      Sub("S", "select guide.restaurant", "select S.restaurant");
  ASSERT_TRUE(qss.Subscribe(sub, nullptr).ok());
  EXPECT_EQ(qss.Subscribe(sub, nullptr).code(), StatusCode::kAlreadyExists);

  Subscription bad = sub;
  bad.name = "T";
  bad.polling_query = "select guide.<add>restaurant";
  EXPECT_FALSE(qss.Subscribe(bad, nullptr).ok())
      << "polling queries must be plain Lorel";

  bad.polling_query = "select guide.restaurant";
  bad.filter_query = "this is not a query";
  EXPECT_FALSE(qss.Subscribe(bad, nullptr).ok());

  EXPECT_EQ(qss.Unsubscribe("nope").code(), StatusCode::kNotFound);
  EXPECT_TRUE(qss.Unsubscribe("S").ok());
  // Unknown names report default health.
  EXPECT_EQ(qss.Health("nope").polls_attempted, 0u);
  EXPECT_EQ(qss.Health("nope").state, CircuitState::kClosed);
}

TEST(QssTest, MergedPollGroups) {
  oracle::Scenario s = PaperGuide(Timestamp(0));
  s.Sub("A", "", 1);
  s.Sub("B", "", 1);
  s.Sub("C", "name", 1);
  s.Advance({0});
  const oracle::Output run = oracle::Execute(s, {});
  EXPECT_EQ(run.group_count, 2u)
      << "A and B share a poll group (Section 6.1 proposal (1))";
  for (const char* name : {"A", "B", "C"}) {
    EXPECT_EQ(NotesOf(run, name).size(), 1u) << name;
  }
  EXPECT_EQ(run.group_of.at("A"), run.group_of.at("B"));
  EXPECT_NE(run.group_of.at("A"), run.group_of.at("C"));
}

TEST(QssTest, UnmergedWhenDisabled) {
  oracle::Scenario s = PaperGuide(Timestamp(0));
  s.merge_similar_polls = false;
  s.Sub("A", "", 1);
  s.Sub("B", "", 1);
  EXPECT_EQ(oracle::Execute(s, {}).group_count, 2u);
}

TEST(QssTest, TwoSnapshotRetentionForgetsOldHistory) {
  oracle::Scenario s = PaperGuide(kDec30);
  s.retention = HistoryRetention::kTwoSnapshots;
  s.Sub("R", "", 1);
  s.Advance({11});
  // Only the final (empty) delta's timestamps remain — older annotations
  // were compacted away.
  EXPECT_LE(GroupOf(oracle::Execute(s, {}), "R").annotation_times.size(), 1u);
  // Full retention keeps everything for comparison.
  s.retention = HistoryRetention::kFull;
  EXPECT_GT(GroupOf(oracle::Execute(s, {}), "R").annotation_times.size(), 1u);
}

TEST(QssTest, PollNowAndClockRules) {
  ScriptedSource source(BuildGuide().db, OemHistory());
  QuerySubscriptionService qss(&source, Timestamp(10));
  EXPECT_FALSE(qss.AdvanceTo(Timestamp(5)).ok()) << "no time travel";
  ASSERT_TRUE(qss.Subscribe(Sub("R", "select guide.restaurant",
                                "select R.restaurant", 5),
                            nullptr)
                  .ok());
  EXPECT_EQ(qss.PollNow("none").code(), StatusCode::kNotFound);
  ASSERT_TRUE(qss.PollNow("R").ok());
  EXPECT_EQ(qss.PollingTimes("R").size(), 1u);
  EXPECT_FALSE(qss.PollNow("R").ok()) << "same tick twice";
}

TEST(QssTest, SourceTriggerMode) {
  // Section 6's third snapshot-acquisition mode: the source fires a
  // trigger and QSS polls immediately instead of waiting for the
  // schedule.
  oracle::Scenario s = PaperGuide(kDec30);
  s.Sub("R", "", 14);  // slow schedule: every 2 weeks
  // Scheduled poll 1 on 30Dec; nothing is scheduled by 1Jan, when the
  // source changes and its trigger fires twice the same day.
  s.Advance({0, 2});
  s.ops.push_back({.kind = oracle::Op::Kind::kSourceChanged});
  s.ops.push_back({.kind = oracle::Op::Kind::kSourceChanged});
  const oracle::Output run = oracle::Execute(s, {});
  EXPECT_TRUE(run.op_errors.empty());
  ASSERT_EQ(run.notifications.size(), 2u);
  EXPECT_TRUE(PolledAt(run.notifications[0], kDec30));
  // QSS picks the change up without waiting for the next scheduled poll
  // (Jan 13), once: the second trigger is idempotent within the tick.
  EXPECT_TRUE(PolledAt(run.notifications[1], GuideT1()))
      << "Hakata reported on the trigger-driven poll";
  EXPECT_EQ(GroupOf(run, "R").polls.size(), 2u);
}

TEST(QssTest, KeyedSourceObjectResurrectionIsReportedNotCorrupted) {
  // Documented limitation (DESIGN.md / EXPERIMENTS.md): a keyed source
  // whose polling result drops an OID and later brings the SAME OID back
  // violates OEM's id-freshness rule; QSS reports an error rather than
  // corrupting the DOEM database. Structural sources handle such data.
  // The source hides Janta (id 6) on the middle poll only, so QSS sees
  // the OID disappear and then return.
  OemDatabase base = BuildGuide().db;
  class ResurrectingSource : public InformationSource {
   public:
    explicit ResurrectingSource(OemDatabase full) : full_(std::move(full)) {}
    Result<OemDatabase> Poll(const std::string& query,
                             Timestamp now) override {
      OemDatabase state = full_;
      if (now.ticks == Timestamp::FromDate(1996, 12, 31).ticks) {
        // Middle poll: Janta missing.
        Status s = state.RemArc(4, "restaurant", 6);
        (void)s;
        state.CollectGarbage();
      }
      lorel::OemView view(state);
      auto r = lorel::RunQuery(query, view);
      if (!r.ok()) return r.status();
      return std::move(r->answer);
    }
    bool PreservesIds() const override { return true; }

   private:
    OemDatabase full_;
  };

  ResurrectingSource source(base);
  QuerySubscriptionService qss(&source, kDec30);
  ASSERT_TRUE(qss.Subscribe(Sub("R", "select guide.restaurant",
                                "select R.restaurant"),
                            nullptr)
                  .ok());
  ASSERT_TRUE(qss.AdvanceTo(Timestamp::FromDate(1996, 12, 31)).ok());
  // Day 3: Janta (id 6) re-appears -> creNode on a burned id -> clean
  // error, database intact.
  Status s = qss.AdvanceTo(Timestamp::FromDate(1997, 1, 1));
  EXPECT_FALSE(s.ok());
  const DoemDatabase* d = qss.History("R");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->IsFeasible()) << "failed poll left the DOEM db intact";
  EXPECT_EQ(qss.PollingTimes("R").size(), 2u);
}

// ------------------------------------------- Canonical wrap of an answer

/// Answers every poll with one fixed database, ids preserved.
class FixedAnswerSource : public InformationSource {
 public:
  explicit FixedAnswerSource(OemDatabase answer) : answer_(std::move(answer)) {}
  Result<OemDatabase> Poll(const std::string&, Timestamp) override {
    return answer_;
  }
  bool PreservesIds() const override { return true; }

 private:
  OemDatabase answer_;
};

/// A rooted answer with two "restaurant" subobjects (ids 2 and 3).
OemDatabase SmallAnswer() {
  OemDatabase db;
  NodeId root = db.NewComplex();
  EXPECT_TRUE(db.SetRoot(root).ok());
  EXPECT_TRUE(db.AddArc(root, "restaurant", db.NewString("Janta")).ok());
  EXPECT_TRUE(db.AddArc(root, "restaurant", db.NewString("Bangkok")).ok());
  return db;
}

/// The status of subscribing "R" to `answer` and polling once.
Status FirstPollStatus(OemDatabase answer) {
  FixedAnswerSource source(std::move(answer));
  QuerySubscriptionService qss(&source, kDec30);
  EXPECT_TRUE(qss.Subscribe(Sub("R", "select guide.restaurant",
                                "select R.restaurant"),
                            nullptr)
                  .ok());
  PollReport report;
  EXPECT_TRUE(qss.AdvanceTo(kDec30, &report).ok());
  EXPECT_EQ(report.polls_failed, 1u);
  EXPECT_TRUE(qss.PollingTimes("R").empty())
      << "a failed first poll commits nothing";
  if (report.errors.size() != 1) return Status::OK();
  return report.errors[0].status;
}

TEST(QssWrapTest, AnswerHoldingTheWrapperRootIdFails) {
  OemDatabase answer = SmallAnswer();
  const NodeId wrapper_root = NodeId{1} << 62;
  ASSERT_TRUE(answer.CreNode(wrapper_root, Value::Int(1)).ok());
  ASSERT_TRUE(answer.AddArc(answer.root(), "price", wrapper_root).ok());
  Status s = FirstPollStatus(std::move(answer));
  EXPECT_EQ(s.code(), StatusCode::kInternal) << s.ToString();
  EXPECT_NE(s.message().find("collides"), std::string::npos) << s.ToString();
}

TEST(QssWrapTest, ArcIntoTheAnswerRootFailsThePoll) {
  // A cycle back to the root, and a self-loop on it: once the wrapper
  // replaces the answer root, neither arc has a target.
  OemDatabase cycle = SmallAnswer();
  NodeId inner = cycle.NewComplex();
  ASSERT_TRUE(cycle.AddArc(cycle.root(), "guide", inner).ok());
  ASSERT_TRUE(cycle.AddArc(inner, "up", cycle.root()).ok());
  OemDatabase self_loop = SmallAnswer();
  ASSERT_TRUE(self_loop.AddArc(self_loop.root(), "self", self_loop.root())
                  .ok());
  for (OemDatabase* answer : {&cycle, &self_loop}) {
    ASSERT_TRUE(answer->Validate().ok());
    Status s = FirstPollStatus(*answer);
    EXPECT_EQ(s.code(), StatusCode::kNotFound) << s.ToString();
  }
}

TEST(QssWrapTest, TwoEntryGroupWrapsWithOneRootArcPerEntry) {
  const OemDatabase answer = SmallAnswer();
  FixedAnswerSource source(answer);
  QuerySubscriptionService qss(&source, kDec30);
  for (const char* name : {"A", "B"}) {
    ASSERT_TRUE(qss.Subscribe(Sub(name, "select guide.restaurant",
                                  std::string("select ") + name +
                                      ".restaurant"),
                              nullptr)
                    .ok());
  }
  ASSERT_TRUE(qss.AdvanceTo(kDec30).ok());
  ASSERT_EQ(qss.GroupCount(), 1u);
  const OemDatabase& snap = qss.History("A")->CurrentSnapshot();
  ASSERT_TRUE(snap.Validate().ok());
  const std::vector<OutArc>& entries = snap.OutArcs(snap.root());
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].label, "A");
  EXPECT_EQ(entries[1].label, "B");
  const NodeId container = entries[0].child;
  EXPECT_EQ(entries[1].child, container);
  EXPECT_EQ(snap.OutArcs(container), answer.OutArcs(answer.root()))
      << "the container takes the answer root's arcs, in order";
  EXPECT_FALSE(snap.HasNode(answer.root())) << "the answer root is gone";
  EXPECT_EQ(snap.node_count(), answer.node_count() + 1);
}

TEST(QssWrapTest, GarbageAnswerFailsAtFetchAndIsRetried) {
  // Validation happens once, at fetch: a truncated snapshot is an
  // Unavailable attempt that the retry policy absorbs.
  FixedAnswerSource inner(SmallAnswer());
  FaultInjectingSource source(&inner);
  source.AddFault({.kind = FaultKind::kGarbage, .count = 1,
                   .query_contains = ""});
  QssOptions opts;
  opts.fault_tolerance.retry.max_attempts = 2;
  QuerySubscriptionService qss(&source, kDec30, opts);
  ASSERT_TRUE(qss.Subscribe(Sub("R", "select guide.restaurant",
                                "select R.restaurant"),
                            nullptr)
                  .ok());
  PollReport report;
  ASSERT_TRUE(qss.AdvanceTo(kDec30, &report).ok());
  EXPECT_TRUE(report.errors.empty());
  EXPECT_EQ(report.retries, 1u);
  EXPECT_EQ(source.injected_garbage(), 1u);
  const PollHealth h = qss.Health("R");
  EXPECT_EQ(h.polls_succeeded, 1u);
  EXPECT_EQ(h.retries, 1u);
  EXPECT_EQ(h.last_error.code(), StatusCode::kUnavailable);
  EXPECT_NE(h.last_error.message().find("malformed snapshot"),
            std::string::npos)
      << h.last_error.ToString();
  EXPECT_EQ(qss.PollingTimes("R").size(), 1u);
}

// -------------------------------------------- Fault tolerance (Section 6
// autonomous sources: polls may fail; QSS retries, quarantines, reports)

TEST(QssFaultTest, TransientFailureRetriedThenRecovered) {
  // Poll 1 is clean; poll 2's first attempt fails, its retry succeeds.
  oracle::Scenario s =
      PaperGuide(kDec30, {{.skip = 1, .count = 1, .query_contains = ""}});
  s.tolerance.retry.max_attempts = 2;
  s.tolerance.retry.backoff_base_ticks = 3;
  s.Sub("R", "", 1);
  s.Advance({0, 1});
  const oracle::Output run = oracle::Execute(s, {});
  EXPECT_EQ(run.notifications.size(), 1u);
  // The transient failure is absorbed by the retry: nothing is reported.
  EXPECT_TRUE(run.report.errors.empty());

  const PollHealth& h = GroupOf(run, "R").health;
  EXPECT_EQ(h.state, CircuitState::kClosed);
  EXPECT_EQ(h.polls_attempted, 2u);
  EXPECT_EQ(h.polls_succeeded, 2u);
  EXPECT_EQ(h.polls_failed, 0u);
  EXPECT_EQ(h.retries, 1u);
  EXPECT_EQ(h.backoff_ticks, 3);
  EXPECT_EQ(h.consecutive_failures, 0);
  EXPECT_EQ(h.last_error.code(), StatusCode::kUnavailable)
      << "the transient is kept as a diagnostic";
  EXPECT_TRUE(h.missed.empty());

  EXPECT_EQ(run.source_calls, 3u);
  EXPECT_EQ(run.source_forwarded, 2u);
  EXPECT_EQ(run.injected_errors, 1u);
  EXPECT_EQ(GroupOf(run, "R").polls.size(), 2u) << "no poll was lost";
}

TEST(QssFaultTest, BackoffSaturatesInsteadOfOverflowing) {
  // Poll 1 is clean; every attempt of poll 2 fails. Its 69 retries ask
  // for 2^0 + ... + 2^68 ticks of backoff, far past INT64_MAX, and
  // shifts of 64 or more: the total saturates.
  oracle::Scenario s =
      PaperGuide(kDec30, {{.skip = 1, .count = 0, .query_contains = ""}});
  s.tolerance.retry.max_attempts = 70;
  s.tolerance.retry.backoff_base_ticks = 1;
  s.Sub("R", "", 1);
  s.Advance({0, 1});
  const oracle::Output run = oracle::Execute(s, {});

  const PollHealth& h = GroupOf(run, "R").health;
  EXPECT_EQ(h.polls_failed, 1u);
  EXPECT_EQ(h.retries, 69u);
  EXPECT_EQ(h.backoff_ticks, std::numeric_limits<int64_t>::max());
  EXPECT_EQ(run.injected_errors, 70u);
}

TEST(QssFaultTest, SlowPollExceedingDeadlineIsRetried) {
  oracle::Scenario s =
      PaperGuide(Timestamp(0), {{.kind = FaultKind::kSlowPoll,
                             .duration_ticks = 10, .query_contains = ""}});
  s.tolerance.retry.max_attempts = 2;
  s.tolerance.retry.poll_deadline_ticks = 5;
  s.Sub("R", "", 1);
  s.Advance({0});
  const oracle::Output run = oracle::Execute(s, {});

  const PollHealth& h = GroupOf(run, "R").health;
  EXPECT_EQ(h.polls_succeeded, 1u);
  EXPECT_EQ(h.retries, 1u) << "the slow answer was discarded and retried";
  EXPECT_EQ(h.last_error.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(run.injected_slow, 1u);
  EXPECT_EQ(run.source_calls, 2u);
}

TEST(QssFaultTest, QuarantineAfterConsecutiveFailures) {
  ScriptedSource inner(BuildGuide().db, GuideHistory());
  FaultInjectingSource source(&inner);
  source.FailPolls(/*skip=*/0, /*count=*/0);  // the source is down for good

  std::vector<PollError> errors;
  QssOptions opts;
  opts.fault_tolerance.quarantine_after = 2;
  opts.fault_tolerance.quarantine_cooldown_ticks = 2;
  opts.fault_tolerance.on_error = [&](const PollError& e) { errors.push_back(e); };
  QuerySubscriptionService qss(&source, Timestamp(0), opts);
  ASSERT_TRUE(qss.Subscribe(Sub("X", "select guide.restaurant",
                                "select X.restaurant<cre at T> "
                                "where T > t[-1]"),
                            nullptr)
                  .ok());

  // Day 0 and day 1 fail; the breaker opens until day 3. Day 2 is
  // recorded as missed; day 3's half-open probe fails and re-opens the
  // breaker until day 5; day 4 is missed again. With an error callback
  // configured, every AdvanceTo completes and returns OK.
  for (int64_t day = 0; day <= 4; ++day) {
    EXPECT_TRUE(qss.AdvanceTo(Timestamp(day)).ok()) << "day " << day;
    EXPECT_EQ(qss.now(), Timestamp(day)) << "the clock always advances";
  }

  PollHealth h = qss.Health("X");
  EXPECT_EQ(h.state, CircuitState::kOpen);
  EXPECT_EQ(h.polls_attempted, 3u);  // days 0, 1, and the probe on day 3
  EXPECT_EQ(h.polls_failed, 3u);
  EXPECT_EQ(h.polls_succeeded, 0u);
  EXPECT_EQ(h.consecutive_failures, 3);
  EXPECT_EQ(h.quarantined_until, Timestamp(5));
  ASSERT_EQ(h.missed.size(), 2u);
  EXPECT_EQ(h.missed[0].time, Timestamp(2));
  EXPECT_EQ(h.missed[1].time, Timestamp(4));
  EXPECT_NE(h.missed[0].reason.find("quarantined"), std::string::npos);

  ASSERT_EQ(errors.size(), 3u);
  EXPECT_EQ(errors[0].kind, PollError::Kind::kPoll);
  EXPECT_EQ(errors[0].subject, "X");
  EXPECT_EQ(errors[0].status.code(), StatusCode::kUnavailable);

  // The DOEM history was never touched by the outage.
  const DoemDatabase* d = qss.History("X");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->IsFeasible());
  EXPECT_TRUE(qss.PollingTimes("X").empty());
}

TEST(QssFaultTest, HalfOpenProbeReopensAndResumesDiffing) {
  // Down for two polls, then up.
  oracle::Scenario s = PaperGuide(kDec30, {{.count = 2, .query_contains = ""}});
  s.tolerance.quarantine_after = 2;
  s.tolerance.quarantine_cooldown_ticks = 2;
  s.Sub("R", "", 1);
  // 30Dec fails, 31Dec fails -> open until 2Jan. 1Jan is missed; the
  // 2Jan probe succeeds, closes the breaker, and the first real poll
  // diffs against R0 — catching up on everything, including Hakata
  // (added 1Jan while the group was dark).
  s.Advance({3});
  const oracle::Output run = oracle::Execute(s, {});
  EXPECT_TRUE(run.op_errors.empty());

  const PollHealth& h = GroupOf(run, "R").health;
  EXPECT_EQ(h.state, CircuitState::kClosed);
  EXPECT_EQ(h.polls_attempted, 3u);
  EXPECT_EQ(h.polls_failed, 2u);
  EXPECT_EQ(h.polls_succeeded, 1u);
  EXPECT_EQ(h.consecutive_failures, 0);
  ASSERT_EQ(h.missed.size(), 1u);
  EXPECT_EQ(h.missed[0].time, Timestamp::FromDate(1997, 1, 1));

  ASSERT_EQ(run.notifications.size(), 1u);
  EXPECT_TRUE(PolledAt(run.notifications[0], Timestamp::FromDate(1997, 1, 2)));
  EXPECT_EQ(Rows(run.notifications[0]), 3u) << "all three restaurants new";
  EXPECT_TRUE(GroupOf(run, "R").feasible);
}

TEST(QssFaultTest, MultiGroupTickOneGroupFailsOthersNotify) {
  // Only the name-group's polls fail.
  oracle::Scenario s = PaperGuide(
      kDec30, {{.count = 0, .error = Status::Unavailable("down"),
                .query_contains = ".name"}});
  s.Sub("A", "", 1);
  s.Sub("C", "name", 1);
  s.Advance({0});
  const oracle::Output run = oracle::Execute(s, {});
  ASSERT_EQ(run.group_count, 2u);

  EXPECT_TRUE(run.op_errors.empty())
      << "failures flow through the report, not the Status";
  const PollReport& report = run.report;
  EXPECT_EQ(report.polls_attempted, 2u);
  EXPECT_EQ(report.polls_ok, 1u);
  EXPECT_EQ(report.polls_failed, 1u);
  EXPECT_EQ(report.notifications, 1u);
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_EQ(report.errors[0].kind, PollError::Kind::kPoll);
  EXPECT_EQ(report.errors[0].subject, "C");
  EXPECT_EQ(report.FirstError().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(report.all_ok());
  EXPECT_EQ(NotesOf(run, "A").size(), 1u) << "the healthy group still notified";
  EXPECT_EQ(GroupOf(run, "A").health.polls_failed, 0u);
  EXPECT_EQ(GroupOf(run, "C").health.polls_failed, 1u);
}

// Regression (seed bug): one member's filter-query failure starved every
// remaining member of its poll group.
TEST(QssFaultTest, FilterErrorDoesNotStarveOtherMembers) {
  ScriptedSource source(BuildGuide().db, GuideHistory());
  std::vector<PollError> errors;
  QssOptions opts;
  // The translated strategy cannot evaluate annotated exists ranges
  // (translate.h), so A's filter parses at Subscribe time but fails at
  // evaluation time — exactly a runtime filter error.
  opts.strategy = chorel::Strategy::kTranslated;
  opts.fault_tolerance.on_error = [&](const PollError& e) { errors.push_back(e); };
  QuerySubscriptionService qss(&source, kDec30, opts);

  int b_notified = 0;
  ASSERT_TRUE(qss.Subscribe(Sub("A", "select guide.restaurant",
                                "select R from A.restaurant R where "
                                "exists C in R.<add>comment : C = \"x\""),
                            nullptr)
                  .ok());
  ASSERT_TRUE(qss.Subscribe(Sub("B", "select guide.restaurant",
                                "select B.restaurant<cre at T> "
                                "where T > t[-1]"),
                            [&](const Notification&) { ++b_notified; })
                  .ok());
  ASSERT_EQ(qss.GroupCount(), 1u) << "A and B share one poll group";

  ASSERT_TRUE(qss.AdvanceTo(kDec30).ok());
  EXPECT_EQ(b_notified, 1)
      << "B's notification must survive A's filter error";
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].kind, PollError::Kind::kFilter);
  EXPECT_EQ(errors[0].subject, "A");
  EXPECT_EQ(errors[0].status.code(), StatusCode::kUnsupported);
  EXPECT_EQ(qss.PollingTimes("B").size(), 1u)
      << "the poll itself succeeded and is part of the history";
}

// Regression (seed bug): AdvanceTo advanced next_poll before polling and
// aborted on failure, losing the poll forever and leaving now() behind.
TEST(QssFaultTest, ClockAndScheduleStayConsistentUnderFailure) {
  ScriptedSource inner(BuildGuide().db, GuideHistory());
  FaultInjectingSource source(&inner);
  source.FailPolls(/*skip=*/0, /*count=*/1);  // only the first poll fails

  int notified = 0;
  QuerySubscriptionService qss(&source, Timestamp(0));
  ASSERT_TRUE(qss.Subscribe(Sub("R", "select guide.restaurant",
                                "select R.restaurant<cre at T> "
                                "where T > t[-1]"),
                            [&](const Notification&) { ++notified; })
                  .ok());

  // Three polls fall due; the first fails. Without a report or callback
  // the legacy surface still returns the failure — but only after the
  // whole tick ran: the clock reaches t and the later polls executed.
  Status s = qss.AdvanceTo(Timestamp(2));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(qss.now(), Timestamp(2)) << "the clock must not fall behind";
  EXPECT_EQ(qss.PollingTimes("R").size(), 2u)
      << "polls at ticks 1 and 2 ran despite the failure at tick 0";
  EXPECT_EQ(notified, 1);
  PollHealth h = qss.Health("R");
  EXPECT_EQ(h.polls_attempted, 3u);
  EXPECT_EQ(h.polls_failed, 1u) << "the failed poll is recorded, not lost";
  EXPECT_EQ(h.polls_succeeded, 2u);
}

// The acceptance scenario: a 3-subscription, 2-group service survives a
// source that fails two polls and recovers.
TEST(QssFaultTest, EndToEndOutageScenario) {
  // The guide changes once in the window, at day 4 (1Jan97, Hakata) —
  // after the outage — so the faulty and faultless runs must build
  // identical DOEM histories. C's group fails its day-1 and day-2 polls
  // (each poll is two attempts), is quarantined, misses day 3, and
  // recovers via the day-4 half-open probe.
  const Timestamp day0 = Timestamp::FromDate(1996, 12, 28);
  auto day = [&](int64_t n) { return Timestamp(day0.ticks + n); };
  oracle::Scenario s = PaperGuide(
      day0, {{.skip = 1, .count = 4, .error = Status::Unavailable("outage"),
              .query_contains = ".name"}});
  s.notify_empty = true;  // healthy members hear from every tick
  s.tolerance.retry.max_attempts = 2;
  s.tolerance.quarantine_after = 2;
  s.tolerance.quarantine_cooldown_ticks = 2;
  s.Sub("A", "", 1);
  s.Sub("B", "", 1);
  s.Sub("C", "name", 1);
  s.Advance({0, 1, 1, 1, 1, 1, 1});
  const oracle::Output run = oracle::Execute(s, {});
  ASSERT_EQ(run.group_count, 2u);
  EXPECT_TRUE(run.op_errors.empty());

  // The unaffected group notified on every tick; no notification was
  // lost for healthy members.
  EXPECT_EQ(NotesOf(run, "A").size(), 7u);
  EXPECT_EQ(NotesOf(run, "B").size(), 7u);
  // C heard from every successful poll: days 0, 4 (probe), 5, 6 — with
  // real rows on day 0 (both initial names) and day 4 (the new name).
  const std::vector<std::string> c = NotesOf(run, "C");
  ASSERT_EQ(c.size(), 4u);
  EXPECT_TRUE(PolledAt(c[0], day(0)));
  EXPECT_EQ(Rows(c[0]), 2u);
  EXPECT_TRUE(PolledAt(c[1], day(4)));
  EXPECT_EQ(Rows(c[1]), 1u)
      << "the change that happened at recovery time is seen exactly once";
  EXPECT_EQ(Rows(c[2]), 0u);

  // Health reports the exact failure/retry/missed counts.
  const PollHealth& hc = GroupOf(run, "C").health;
  EXPECT_EQ(hc.state, CircuitState::kClosed);
  EXPECT_EQ(hc.polls_attempted, 6u);  // days 0,1,2 + probe 4 + 5,6
  EXPECT_EQ(hc.polls_failed, 2u);
  EXPECT_EQ(hc.polls_succeeded, 4u);
  EXPECT_EQ(hc.retries, 2u);
  ASSERT_EQ(hc.missed.size(), 1u);
  EXPECT_EQ(hc.missed[0].time, day(3));
  const PollHealth& ha = GroupOf(run, "A").health;
  EXPECT_EQ(ha.polls_attempted, 7u);
  EXPECT_EQ(ha.polls_failed, 0u);
  EXPECT_EQ(ha.retries, 0u);
  EXPECT_TRUE(ha.missed.empty());

  // The aggregated report saw the whole story.
  EXPECT_EQ(run.report.polls_attempted, 13u);
  EXPECT_EQ(run.report.polls_ok, 11u);
  EXPECT_EQ(run.report.polls_failed, 2u);
  EXPECT_EQ(run.report.polls_missed, 1u);
  EXPECT_EQ(run.report.retries, 2u);
  EXPECT_EQ(run.report.notifications, 18u);
  EXPECT_EQ(run.report.errors.size(), 2u);

  // The same scenario without the fault: the recovered group's DOEM
  // history equals the faultless one; only the polling times differ, by
  // exactly the failed + missed polls.
  oracle::Scenario faultless = s;
  faultless.faults.clear();
  const oracle::Output clean = oracle::Execute(faultless, {});
  EXPECT_EQ(GroupOf(run, "C").history, GroupOf(clean, "C").history)
      << "an outage must not corrupt or diverge the change history";
  EXPECT_EQ(GroupOf(clean, "C").polls.size(), 7u);
  const std::vector<Timestamp>& faulty_polls = GroupOf(run, "C").polls;
  ASSERT_EQ(faulty_polls.size(), 4u);
  EXPECT_EQ(faulty_polls[0], day(0));
  EXPECT_EQ(faulty_polls[1], day(4));
  // 7 scheduled = 4 polled + 2 failed + 1 missed.
  EXPECT_EQ(faulty_polls.size() + hc.polls_failed + hc.missed.size(), 7u);
  EXPECT_EQ(GroupOf(run, "A").history, GroupOf(clean, "A").history);
}

}  // namespace
}  // namespace qss
}  // namespace doem
