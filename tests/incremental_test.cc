// DESIGN.md §6c guard tests: the Section 5.1 OEM encoding patched by
// IncrementalEncoder must be observationally identical to a from-scratch
// encoding, and evaluation seeded from the DOEM's annotation index must
// return exactly the rows of scan evaluation. (The DOEM keeps its index
// exact itself; doem_test checks it against fresh builds.) The oracle
// instances at the bottom pin the end-to-end property: a service with
// incremental maintenance produces byte-identical histories, notification
// rows, and reports to one that rebuilds every poll.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chorel/chorel.h"
#include "encoding/doem_text.h"
#include "encoding/encode.h"
#include "encoding/encode_incremental.h"
#include "oem/graph_compare.h"
#include "oracle.h"
#include "testing/generators.h"

namespace doem {
namespace {

// ------------------------------------------ IncrementalEncoder

// After every patched step the maintained encoding must decode back to
// the database, and must stay isomorphic to a fresh EncodeDoem (equal up
// to auxiliary-node renaming — the maintainer allocates auxiliary ids in
// its reserved band, so exact graph equality is not expected).
void ExpectEncoderTracksFullEncode(const OemDatabase& base,
                                   const OemHistory& history) {
  auto d = DoemDatabase::FromSnapshot(base);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  auto enc = IncrementalEncoder::Create(*d);
  ASSERT_TRUE(enc.ok()) << enc.status().ToString();
  for (const HistoryStep& step : history.steps()) {
    ASSERT_TRUE(d->ApplyChangeSet(step.time, step.changes).ok());
    Status s = enc->ApplyDelta(*d, step.time, step.changes);
    ASSERT_TRUE(s.ok()) << s.ToString();
    auto decoded = DecodeDoem(enc->encoding());
    ASSERT_TRUE(decoded.ok())
        << "t=" << step.time.ticks << ": " << decoded.status().ToString();
    EXPECT_TRUE(decoded->Equals(*d))
        << "patched encoding decodes to a different database at t="
        << step.time.ticks;
    auto fresh = EncodeDoem(*d);
    ASSERT_TRUE(fresh.ok());
    EXPECT_TRUE(Isomorphic(enc->encoding(), *fresh))
        << "patched encoding not isomorphic to fresh encode at t="
        << step.time.ticks;
  }
}

TEST(IncrementalEncoderTest, TracksFullEncodeOnGuideHistories) {
  OemDatabase guide = testing::SyntheticGuide(12);
  ExpectEncoderTracksFullEncode(guide,
                                testing::SyntheticGuideHistory(guide, 10, 4));
  ExpectEncoderTracksFullEncode(guide,
                                testing::SyntheticGuideChurn(guide, 10, 4));
}

TEST(IncrementalEncoderTest, TracksFullEncodeOnRandomHistories) {
  for (uint32_t seed = 1; seed <= 4; ++seed) {
    testing::DatabaseOptions dbo;
    dbo.seed = seed;
    dbo.node_count = 50;
    OemDatabase base = testing::RandomDatabase(dbo);
    testing::HistoryOptions ho;
    ho.seed = seed + 500;
    ho.steps = 8;
    ExpectEncoderTracksFullEncode(base, testing::RandomHistory(base, ho));
  }
}

TEST(IncrementalEncoderTest, HandlesRemReAddAndStillbornOps) {
  // root -a-> c, root -b-> c (so c survives removing one arc),
  // root -x-> p (complex) -y-> c.
  OemDatabase base;
  NodeId root = base.NewComplex();
  ASSERT_TRUE(base.SetRoot(root).ok());
  NodeId c = base.NewInt(1);
  NodeId p = base.NewComplex();
  ASSERT_TRUE(base.AddArc(root, "a", c).ok());
  ASSERT_TRUE(base.AddArc(root, "b", c).ok());
  ASSERT_TRUE(base.AddArc(root, "x", p).ok());
  ASSERT_TRUE(base.AddArc(p, "y", c).ok());

  OemHistory history;
  // Atomic -> atomic update with a kind change.
  ASSERT_TRUE(
      history.Append(Timestamp(10), {ChangeOp::UpdNode(c, Value::String("s"))})
          .ok());
  // Remove, then re-add, the same physical arc (appends to the existing
  // history object rather than minting a new one).
  ASSERT_TRUE(
      history.Append(Timestamp(20), {ChangeOp::RemArc(root, "a", c)}).ok());
  ASSERT_TRUE(
      history.Append(Timestamp(30), {ChangeOp::AddArc(root, "a", c)}).ok());
  // A stillborn node: created but never linked, pruned by the DOEM
  // manager — the encoder must skip it exactly as a fresh encode never
  // sees it. The update keeps the change set observable.
  ASSERT_TRUE(history
                  .Append(Timestamp(40),
                          {ChangeOp::CreNode(999, Value::Int(5)),
                           ChangeOp::UpdNode(c, Value::Int(2))})
                  .ok());
  // A brand-new node and arc (new history object via PatchAddArc).
  ASSERT_TRUE(history
                  .Append(Timestamp(50),
                          {ChangeOp::CreNode(1000, Value::Int(7)),
                           ChangeOp::AddArc(p, "z", 1000)})
                  .ok());
  ExpectEncoderTracksFullEncode(base, history);
}

TEST(IncrementalEncoderTest, RejectsDoemIdsInTheAuxiliaryBand) {
  OemDatabase base;
  NodeId root = base.NewComplex();
  ASSERT_TRUE(base.SetRoot(root).ok());
  ASSERT_TRUE(
      base.CreNode(IncrementalEncoder::kAuxIdBase + 1, Value::Int(1)).ok());
  ASSERT_TRUE(
      base.AddArc(root, "a", IncrementalEncoder::kAuxIdBase + 1).ok());
  auto d = DoemDatabase::FromSnapshot(std::move(base));
  ASSERT_TRUE(d.ok());
  EXPECT_FALSE(IncrementalEncoder::Create(*d).ok());
}

// ------------------------------------------ Index-seeded evaluation

using oracle::SortedRows;

// Every corpus query, both strategies: an engine with index seeding
// enabled returns exactly the rows of a plain engine, in the same order,
// and agrees on which queries fail.
TEST(IndexSeedingTest, SeededRowsMatchScanRowsOnCorpus) {
  for (uint32_t seed = 1; seed <= 4; ++seed) {
    testing::DatabaseOptions dbo;
    dbo.seed = seed;
    OemDatabase base = testing::RandomDatabase(dbo);
    testing::HistoryOptions ho;
    ho.seed = seed + 300;
    auto d = DoemDatabase::Build(base, testing::RandomHistory(base, ho));
    ASSERT_TRUE(d.ok());
    chorel::ChorelEngine plain(*d);
    chorel::ChorelEngineOptions seeded_opts;
    seeded_opts.seed_from_index = true;
    chorel::ChorelEngine seeded(*d, seeded_opts);
    for (const std::string& query : testing::ChorelQueryCorpus(8)) {
      for (chorel::Strategy strategy :
           {chorel::Strategy::kDirect, chorel::Strategy::kTranslated}) {
        auto a = plain.Run(query, strategy);
        auto b = seeded.Run(query, strategy);
        ASSERT_EQ(a.ok(), b.ok())
            << query << ": seeded and plain disagree on status ("
            << (a.ok() ? b.status().ToString() : a.status().ToString())
            << ")";
        if (!a.ok()) continue;
        EXPECT_EQ(a->RowsToString(), b->RowsToString()) << query;
      }
    }
  }
}

// The QSS filter shape — annotation time variables bounded by t[i]
// references — with polling times supplied.
TEST(IndexSeedingTest, SeededRowsMatchScanWithPollingTimes) {
  OemDatabase guide = testing::SyntheticGuide(10);
  OemHistory history = testing::SyntheticGuideHistory(guide, 8, 4);
  auto d = DoemDatabase::Build(guide, history);
  ASSERT_TRUE(d.ok());
  std::vector<Timestamp> polls;
  for (size_t i = 0; i < history.size(); i += 2) {
    polls.push_back(history.steps()[i].time);
  }
  lorel::EvalOptions opts;
  opts.polling_times = &polls;

  chorel::ChorelEngine plain(*d);
  chorel::ChorelEngineOptions seeded_opts;
  seeded_opts.seed_from_index = true;
  chorel::ChorelEngine seeded(*d, seeded_opts);
  const std::vector<std::string> queries = {
      "select guide.restaurant<cre at T> where T > t[-1]",
      "select guide.restaurant<cre at T> where T > t[-2] and T <= t[0]",
      "select T, OV, NV from guide.restaurant.price"
      "<upd at T from OV to NV> where T > t[-1]",
      "select R, T from guide.<add at T>restaurant R where T > t[-1]",
      "select R, T from guide.<rem at T>restaurant R where T > t[-1]",
  };
  size_t total_rows = 0;
  for (const std::string& query : queries) {
    for (chorel::Strategy strategy :
         {chorel::Strategy::kDirect, chorel::Strategy::kTranslated}) {
      auto a = plain.Run(query, strategy, opts);
      auto b = seeded.Run(query, strategy, opts);
      ASSERT_TRUE(a.ok()) << query << ": " << a.status().ToString();
      ASSERT_TRUE(b.ok()) << query << ": " << b.status().ToString();
      EXPECT_EQ(a->RowsToString(), b->RowsToString()) << query;
      total_rows += a->rows.size();
    }
  }
  EXPECT_GT(total_rows, 0u) << "comparison is vacuous: no query matched";
}

// A parent whose children's annotation times run against its arc order:
// P's `l` and `m` buckets are [B, A], but A is created, added, updated
// and removed before B. B's `l` arc is removed at 4 and re-added at 5
// (B stays reachable through `m`), so its in-range add postdates A's.
DoemDatabase AnnotationsAgainstArcOrder() {
  OemDatabase base;
  const NodeId root = base.NewComplex();
  const NodeId p = base.NewComplex();
  EXPECT_TRUE(base.SetRoot(root).ok());
  EXPECT_TRUE(base.AddArc(root, "p", p).ok());
  const NodeId a = base.PeekNextId();
  const NodeId b = a + 1;
  OemHistory h;
  auto step = [&](int64_t t, ChangeSet ops) {
    EXPECT_TRUE(h.Append(Timestamp(t), std::move(ops)).ok()) << t;
  };
  step(1, {ChangeOp::CreNode(a, Value::Int(1)), ChangeOp::AddArc(root, "x", a)});
  step(2, {ChangeOp::CreNode(b, Value::Int(2)), ChangeOp::AddArc(p, "l", b),
           ChangeOp::AddArc(p, "m", b)});
  step(3, {ChangeOp::AddArc(p, "l", a), ChangeOp::AddArc(p, "m", a)});
  step(4, {ChangeOp::RemArc(p, "l", b)});
  step(5, {ChangeOp::AddArc(p, "l", b)});
  step(6, {ChangeOp::UpdNode(a, Value::Int(10))});
  step(7, {ChangeOp::UpdNode(b, Value::Int(20))});
  step(8, {ChangeOp::RemArc(p, "m", a)});
  step(9, {ChangeOp::RemArc(p, "m", b)});
  auto d = DoemDatabase::Build(base, h);
  EXPECT_TRUE(d.ok()) << d.status().ToString();
  return std::move(d).value();
}

// Seeding never reorders rows: for every seedable annotation form the
// seeded VM returns the scan's rows in the scan's order, although the
// index postings come in the opposite (time) order.
TEST(IndexSeedingTest, SeededRowsKeepScanOrder) {
  const DoemDatabase d = AnnotationsAgainstArcOrder();
  chorel::ChorelEngineOptions walker_opts;
  walker_opts.use_vm = false;
  chorel::ChorelEngineOptions seeded_opts;
  seeded_opts.seed_from_index = true;
  chorel::ChorelEngine walker(d, walker_opts);
  chorel::ChorelEngine scanned(d);
  chorel::ChorelEngine seeded(d, seeded_opts);
  for (const char* query : {
           "select X, T from p.l<cre at T> X where T > 0",
           "select X, T from p.l<upd at T> X where T > 5",
           "select X, T from p.<add at T>l X where T > 2",
           "select X, T from p.<rem at T>m X where T > 7",
           "select X, T from p.<add at T>% X where T > 2",
           "select X, T from p.<rem at T>% X where T > 7",
       }) {
    SCOPED_TRACE(query);
    lorel::EvalStats stats;
    lorel::EvalOptions opts;
    opts.stats = &stats;
    auto a = seeded.Run(query, chorel::Strategy::kDirect, opts);
    auto b = scanned.Run(query, chorel::Strategy::kDirect);
    auto c = walker.Run(query, chorel::Strategy::kDirect);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    EXPECT_EQ(stats.steps_index_seeded, 1u);
    EXPECT_EQ(a->rows.size(), 2u);
    EXPECT_EQ(a->RowsToString(), c->RowsToString());
    EXPECT_EQ(b->RowsToString(), c->RowsToString());
  }
}

// ------------------------------------------ ChorelEngine::ApplyDelta

TEST(ChorelEngineTest, ApplyDeltaKeepsCachesCurrentAndVerifies) {
  OemDatabase guide = testing::SyntheticGuide(10);
  OemHistory history = testing::SyntheticGuideHistory(guide, 8, 4);
  auto d = DoemDatabase::FromSnapshot(guide);
  ASSERT_TRUE(d.ok());
  chorel::ChorelEngineOptions opts;
  opts.seed_from_index = true;
  opts.verify_incremental = true;  // cross-check after every delta
  chorel::ChorelEngine engine(*d, opts);
  const std::string query =
      "select guide.restaurant<cre at T> where T > 0";
  for (const HistoryStep& step : history.steps()) {
    ASSERT_TRUE(d->ApplyChangeSet(step.time, step.changes).ok());
    Status s = engine.ApplyDelta(step.time, step.changes);
    ASSERT_TRUE(s.ok()) << s.ToString();
    for (chorel::Strategy strategy :
         {chorel::Strategy::kDirect, chorel::Strategy::kTranslated}) {
      auto cached = engine.Run(query, strategy);
      auto fresh = chorel::RunChorel(*d, query, strategy);
      ASSERT_TRUE(cached.ok()) << cached.status().ToString();
      ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
      EXPECT_EQ(SortedRows(*cached), SortedRows(*fresh));
    }
  }
}

// A failed encoder patch leaves seeded direct runs correct: they read
// the database's own index, which the apply already brought up to date,
// so the new restaurant is found.
TEST(ChorelEngineTest, FailedEncoderPatchLeavesSeededRunsCorrect) {
  auto d = DoemDatabase::FromSnapshot(testing::SyntheticGuide(4));
  ASSERT_TRUE(d.ok());
  chorel::ChorelEngineOptions opts;
  opts.seed_from_index = true;
  chorel::ChorelEngine engine(*d, opts);
  const std::string query =
      "select guide.restaurant<cre at T> where T > t[-1]";
  const std::vector<Timestamp> polls = {Timestamp(1), Timestamp(10)};
  lorel::EvalOptions eval;
  eval.polling_times = &polls;
  ASSERT_TRUE(engine.Run(query, chorel::Strategy::kTranslated, eval).ok());
  ASSERT_TRUE(engine.Run(query, chorel::Strategy::kDirect, eval).ok());

  // A new restaurant, and an arc whose '&' label the encoder rejects.
  const NodeId guide = d->graph().Child(d->root(), "guide");
  const NodeId restaurant = d->graph().PeekNextId();
  const ChangeSet ops = {ChangeOp::CreNode(restaurant, Value::Complex()),
                         ChangeOp::CreNode(restaurant + 1, Value::Int(1)),
                         ChangeOp::AddArc(guide, "restaurant", restaurant),
                         ChangeOp::AddArc(restaurant, "&odd", restaurant + 1)};
  ASSERT_TRUE(d->ApplyChangeSet(Timestamp(10), ops).ok());
  EXPECT_FALSE(engine.ApplyDelta(Timestamp(10), ops).ok());

  auto stale = engine.Run(query, chorel::Strategy::kDirect, eval);
  auto fresh = chorel::ChorelEngine(*d, opts).Run(
      query, chorel::Strategy::kDirect, eval);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_FALSE(fresh->rows.empty());
  EXPECT_EQ(stale->RowsToString(), fresh->RowsToString());
}

// ------------------------------------------ QSS runs (oracle instances)

// Incremental maintenance, verified against a rebuild after every poll,
// matches per-poll rebuild byte for byte: histories, notification rows,
// report counters.
void ExpectIncrementalMatchesRebuild(const oracle::Scenario& s) {
  const oracle::Output ref = oracle::Execute(s, {});
  const oracle::Output inc =
      oracle::ExpectSame(s, {}, ref, {.incremental = true});
  EXPECT_TRUE(inc.report.errors.empty())
      << "verify cross-check failed: "
      << inc.report.errors.front().status.ToString();
  EXPECT_FALSE(inc.notifications.empty())
      << "comparison is vacuous: no notifications fired";
}

TEST(QssIncrementalTest, IncrementalRunMatchesRebuildRun) {
  for (chorel::Strategy strategy :
       {chorel::Strategy::kDirect, chorel::Strategy::kTranslated}) {
    oracle::Scenario s = oracle::FilterScenario(16, 12);
    s.strategy = strategy;
    ExpectIncrementalMatchesRebuild(s);
  }
}

TEST(QssIncrementalTest, IncrementalRunMatchesRebuildUnderTwoSnapshots) {
  oracle::Scenario s = oracle::FilterScenario(16, 12);
  s.retention = qss::HistoryRetention::kTwoSnapshots;
  ExpectIncrementalMatchesRebuild(s);
}

TEST(QssIncrementalTest, ParallelIncrementalRunMatchesSerial) {
  const oracle::Scenario s = oracle::FilterScenario(16, 12);
  const oracle::Config serial{.incremental = true};
  oracle::ExpectSame(
      s, serial, oracle::Execute(s, serial),
      {.executor = oracle::Config::Executor::kPool, .incremental = true});
}

}  // namespace
}  // namespace doem
