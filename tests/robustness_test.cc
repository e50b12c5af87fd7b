// Failure-injection and resource-safety tests: deep nesting, hostile
// inputs, and operations on the boundaries of the supported subset must
// produce clean errors, never crashes or corruption.

#include <gtest/gtest.h>

#include "chorel/chorel.h"
#include "htmldiff/html.h"
#include "lorel/lorel.h"
#include "oem/oem_text.h"
#include "oracle.h"
#include "qss/qss.h"
#include "testing/guide.h"

namespace doem {
namespace {

using testing::BuildGuide;
using testing::GuideHistory;

TEST(RobustnessTest, DeepChainSerializesIteratively) {
  // A 50,000-deep chain: the recursive writer would overflow the stack;
  // the iterative one must not.
  OemDatabase db;
  NodeId root = db.NewComplex();
  ASSERT_TRUE(db.SetRoot(root).ok());
  NodeId cur = root;
  for (int i = 0; i < 50000; ++i) {
    NodeId next = i + 1 < 50000 ? db.NewComplex() : db.NewInt(7);
    ASSERT_TRUE(db.AddArc(cur, "next", next).ok());
    cur = next;
  }
  std::string text = WriteOemText(db);
  EXPECT_GT(text.size(), 100000u);
  // Parsing refuses beyond its depth limit with a clean error.
  auto parsed = ParseOemText(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  EXPECT_NE(parsed.status().message().find("nesting"), std::string::npos);
}

TEST(RobustnessTest, ModeratelyDeepChainRoundTrips) {
  OemDatabase db;
  NodeId root = db.NewComplex();
  ASSERT_TRUE(db.SetRoot(root).ok());
  NodeId cur = root;
  for (int i = 0; i < 2000; ++i) {
    NodeId next = i + 1 < 2000 ? db.NewComplex() : db.NewInt(7);
    ASSERT_TRUE(db.AddArc(cur, "next", next).ok());
    cur = next;
  }
  auto parsed = ParseOemText(WriteOemText(db));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->Equals(db));
}

TEST(RobustnessTest, DeeplyNestedHtmlRejected) {
  std::string html;
  for (int i = 0; i < 3000; ++i) html += "<div>";
  html += "x";
  for (int i = 0; i < 3000; ++i) html += "</div>";
  auto r = htmldiff::ParseHtml(html);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(RobustnessTest, HostileQueryStrings) {
  testing::Guide g = BuildGuide();
  lorel::OemView view(g.db);
  const char* hostile[] = {
      "select",
      "select .",
      "select ..",
      "select a..b",
      "select a.<",
      "select a.<add",
      "select a.<add at>",
      "select a where b <",
      "select a where (b = 1",
      "select a where exists x in : 1=1",
      "select a from",
      "select a as",
      "select t[",
      "select t[0",
      "select t[999999999999999999999]",
      "select \"unterminated",
      "select a where a like",
  };
  for (const char* q : hostile) {
    auto r = lorel::RunQuery(q, view);
    EXPECT_FALSE(r.ok()) << q;
    EXPECT_TRUE(r.status().code() == StatusCode::kParseError ||
                r.status().code() == StatusCode::kUnsupported)
        << q << " -> " << r.status().ToString();
  }
}

TEST(RobustnessTest, UnaryMinusLiterals) {
  testing::Guide g = BuildGuide();
  lorel::OemView view(g.db);
  auto r = lorel::RunQuery(
      "select guide.restaurant where guide.restaurant.price > -5", view);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 1u) << "10 > -5; 'moderate' fails coercion";
  auto r2 = lorel::RunQuery("select -2.5 as v", view);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->rows[0][0].value, Value::Real(-2.5));
  EXPECT_FALSE(lorel::RunQuery("select - \"x\"", view).ok());
}

TEST(RobustnessTest, GiantChangeSetStaysTransactional) {
  testing::Guide g = BuildGuide();
  auto d = DoemDatabase::FromSnapshot(g.db);
  ASSERT_TRUE(d.ok());
  DoemDatabase before = *d;
  // 10k creations, then one invalid op at the end.
  ChangeSet ops;
  NodeId base = 1000;
  for (NodeId i = 0; i < 10000; ++i) {
    ops.push_back(ChangeOp::CreNode(base + i, Value::Int(1)));
    ops.push_back(ChangeOp::AddArc(4, "bulk", base + i));
  }
  ops.push_back(ChangeOp::AddArc(999999, "x", base));
  Status s = d->ApplyChangeSet(Timestamp(10), ops);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(d->Equals(before));
}

TEST(RobustnessTest, QssSurvivesSourceErrors) {
  // A source whose polling query is valid Lorel but matches nothing:
  // polls succeed with empty results forever.
  qss::ScriptedSource source(BuildGuide().db, GuideHistory());
  qss::QuerySubscriptionService service(&source,
                                        Timestamp::FromDate(1996, 12, 30));
  const qss::Subscription sub{"Ghost", "", {1, ""}, "select nonexistent.entry",
                              "select Ghost.entry<cre at T> where T > t[-1]"};
  int notified = 0;
  ASSERT_TRUE(service
                  .Subscribe(sub, [&](const qss::Notification&) {
                    ++notified;
                  })
                  .ok());
  ASSERT_TRUE(
      service.AdvanceTo(Timestamp::FromDate(1997, 1, 10)).ok());
  EXPECT_EQ(notified, 0);
  EXPECT_EQ(service.PollingTimes("Ghost").size(), 12u);
}

TEST(RobustnessTest, ChorelExistsWithAnnotatedRange) {
  // Annotated exists ranges work in the direct strategy and are cleanly
  // rejected by the translated one (no linear Lorel form, see
  // translate.h).
  auto d = DoemDatabase::Build(BuildGuide().db, GuideHistory());
  ASSERT_TRUE(d.ok());
  const char* q =
      "select R from guide.restaurant R where "
      "exists C in R.<add>comment : C = \"need info\"";
  auto direct = chorel::RunChorel(*d, q, chorel::Strategy::kDirect);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(direct->rows.size(), 1u);
  auto translated = chorel::RunChorel(*d, q, chorel::Strategy::kTranslated);
  ASSERT_FALSE(translated.ok());
  EXPECT_EQ(translated.status().code(), StatusCode::kUnsupported);
}

TEST(RobustnessTest, EmptySelectResultPackagesCleanly) {
  testing::Guide g = BuildGuide();
  lorel::OemView view(g.db);
  auto r = lorel::RunQuery("select guide.nothing", view);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
  EXPECT_TRUE(r->answer.Validate().ok()) << "empty answer is still rooted";
}

TEST(RobustnessTest, ScriptedSourceBadStepIsCleanAndSticky) {
  // A script step whose change set is invalid for the source state must
  // yield a clean error from Poll — identical on every retry — with the
  // source state exactly as of the last good step, never half-applied.
  testing::Guide g = BuildGuide();
  OemHistory script;
  ChangeSet good;
  good.push_back(ChangeOp::CreNode(200, Value::String("fine")));
  good.push_back(ChangeOp::AddArc(g.guide, "note", 200));
  ASSERT_TRUE(script.Append(Timestamp::FromDate(1997, 1, 1), good).ok());
  ChangeSet bad;
  bad.push_back(ChangeOp::CreNode(201, Value::Int(1)));
  bad.push_back(ChangeOp::AddArc(999999, "x", 201));  // no such parent
  ASSERT_TRUE(script.Append(Timestamp::FromDate(1997, 1, 5), bad).ok());

  qss::ScriptedSource source(g.db, script);
  // Before the bad step falls due, everything works.
  auto ok = source.Poll("select guide.restaurant",
                        Timestamp::FromDate(1997, 1, 2));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  OemDatabase after_good = source.db();

  auto r1 = source.Poll("select guide.restaurant",
                        Timestamp::FromDate(1997, 1, 6));
  ASSERT_FALSE(r1.ok());
  EXPECT_NE(r1.status().message().find("script step 1"), std::string::npos)
      << r1.status().ToString();
  EXPECT_TRUE(source.db().Equals(after_good))
      << "the failing set must not partially apply (201 would leak)";
  EXPECT_FALSE(source.db().HasNode(201));

  // Sticky and deterministic across retries.
  auto r2 = source.Poll("select guide.restaurant",
                        Timestamp::FromDate(1997, 1, 7));
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), r1.status().code());
  EXPECT_EQ(r2.status().message(), r1.status().message());
  EXPECT_TRUE(source.db().Equals(after_good));
}

TEST(RobustnessTest, ScriptedSourceOutOfOrderScriptRejected) {
  // The OemHistory vector constructor does not enforce monotone times; a
  // scrambled script must be rejected before any step is applied.
  testing::Guide g = BuildGuide();
  ChangeSet c1;
  c1.push_back(ChangeOp::CreNode(300, Value::Int(1)));
  c1.push_back(ChangeOp::AddArc(g.guide, "late", 300));
  ChangeSet c2;
  c2.push_back(ChangeOp::CreNode(301, Value::Int(2)));
  c2.push_back(ChangeOp::AddArc(g.guide, "early", 301));
  OemHistory scrambled(
      {HistoryStep{Timestamp(5), c1}, HistoryStep{Timestamp(2), c2}});

  qss::ScriptedSource source(g.db, scrambled);
  auto r = source.Poll("select guide.restaurant", Timestamp(10));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidChange);
  EXPECT_NE(r.status().message().find("out of order"), std::string::npos);
  EXPECT_TRUE(source.db().Equals(g.db)) << "no step was applied";
  // Polling again (even at an earlier time) reports the same defect.
  auto r2 = source.Poll("select guide.restaurant", Timestamp(1));
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().message(), r.status().message());
}

/// The paper's guide polled daily from 30Dec96 under one fault.
oracle::Scenario GuideUnder(const qss::FaultSpec& fault) {
  oracle::Scenario s;
  s.source = oracle::Scenario::Source::kPaperGuide;
  s.start = Timestamp::FromDate(1996, 12, 30);
  s.faults = {fault};
  s.Sub("R", "", 1);
  return s;
}

TEST(RobustnessTest, QssGarbageSnapshotIsCleanFailureThenRecovers) {
  // A wrapper that dies mid-transfer delivers a truncated snapshot; QSS
  // must treat it as a failed poll (clean Unavailable), keep the DOEM
  // history intact, and resume on the next healthy poll.
  oracle::Scenario s = GuideUnder(
      {.kind = qss::FaultKind::kGarbage, .count = 1, .query_contains = ""});
  s.Advance({1});
  const oracle::Output run = oracle::Execute(s, {});

  ASSERT_EQ(run.report.errors.size(), 1u);
  const Status& error = run.report.errors[0].status;
  EXPECT_EQ(error.code(), StatusCode::kUnavailable);
  EXPECT_NE(error.message().find("malformed snapshot"), std::string::npos);
  EXPECT_EQ(run.injected_garbage, 1u);
  EXPECT_EQ(run.notifications.size(), 1u)
      << "the day-2 poll recovered and notified";
  const oracle::GroupOutcome& r = run.groups.at(run.group_of.at("R"));
  EXPECT_TRUE(r.feasible) << "garbage never reached the history";
  EXPECT_EQ(r.polls.size(), 1u);
  EXPECT_EQ(r.health.polls_failed, 1u);
  EXPECT_EQ(r.health.polls_succeeded, 1u);
}

TEST(RobustnessTest, QssPersistentOutageDoesNotStarveOtherGroups) {
  // One group's source path is down for good; with quarantine enabled the
  // service stops hammering it, keeps its history intact, and the other
  // group never misses a beat.
  oracle::Scenario s =
      GuideUnder({.count = 0, .error = Status::Unavailable("down"),
                  .query_contains = ".name"});
  s.tolerance.quarantine_after = 2;
  s.tolerance.quarantine_cooldown_ticks = 5;
  s.Sub("N", "name", 1);
  s.Advance({11});
  const oracle::Output run = oracle::Execute(s, {});

  EXPECT_EQ(run.notifications.size(), 2u)
      << "R hears of the initial creations + Hakata on 1Jan";
  EXPECT_EQ(run.groups.at(run.group_of.at("R")).polls.size(), 12u);
  const oracle::GroupOutcome& n = run.groups.at(run.group_of.at("N"));
  EXPECT_EQ(n.health.state, qss::CircuitState::kOpen);
  EXPECT_GT(n.health.missed.size(), 0u)
      << "quarantine suppressed scheduled polls";
  EXPECT_LT(n.health.polls_attempted, 12u)
      << "the breaker stopped the hammering";
  EXPECT_TRUE(n.feasible);
}

}  // namespace
}  // namespace doem
