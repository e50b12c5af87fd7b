// DESIGN.md §6f guard tests: the bytecode VM must be observationally
// identical to the tree-walking evaluator — byte-identical rows (order
// included), packaged answers, and error statuses — across the random
// query corpus plus cross products of independent definitions, Chorel
// time-bound queries with polling times, and whole QSS runs (an oracle
// instance); and uncovered constructs must fall back to the walker
// transparently.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "chorel/chorel.h"
#include "chorel/doem_view.h"
#include "doem/annotation_index.h"
#include "doem/doem.h"
#include "lorel/eval.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "testing/generators.h"
#include "vm/bytecode.h"
#include "vm/compile.h"
#include "vm/vm.h"

namespace doem {
namespace {

using testing::ChorelQueryCorpus;
using testing::DatabaseOptions;
using testing::HistoryOptions;
using testing::RandomDatabase;
using testing::RandomHistory;

// Two engine runs are "identical" when they agree on success/failure,
// the error text, the row text (order included), and the packaged
// answer database.
void ExpectSameResult(const Result<lorel::QueryResult>& a,
                      const Result<lorel::QueryResult>& b,
                      const std::string& context) {
  ASSERT_EQ(a.ok(), b.ok()) << context << "\n"
                            << (a.ok() ? b.status() : a.status()).ToString();
  if (!a.ok()) {
    EXPECT_EQ(a.status().ToString(), b.status().ToString()) << context;
    return;
  }
  EXPECT_EQ(a->RowsToString(), b->RowsToString()) << context;
  EXPECT_TRUE(a->answer.Equals(b->answer)) << context;
}

class VmDifferentialTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  DoemDatabase MakeDoem() const {
    DatabaseOptions dbo;
    dbo.seed = GetParam();
    dbo.node_count = 60 + GetParam() % 40;
    dbo.label_alphabet = 4 + GetParam() % 3;
    OemDatabase db = RandomDatabase(dbo);
    HistoryOptions ho;
    ho.seed = GetParam() * 7 + 1;
    ho.steps = 5 + GetParam() % 5;
    ho.ops_per_step = 4 + GetParam() % 5;
    auto d = DoemDatabase::Build(db, RandomHistory(db, ho));
    EXPECT_TRUE(d.ok()) << d.status().ToString();
    return std::move(d).value();
  }

  size_t alphabet() const { return 4 + GetParam() % 3; }
};

INSTANTIATE_TEST_SUITE_P(Seeds, VmDifferentialTest, ::testing::Range(1u, 13u));

// The core acceptance property: over the whole query corpus, both
// strategies, and both seeding modes, the VM-backed engine returns
// byte-identical results to a walker-only engine — and a verify_vm
// engine (which cross-checks every run internally) never trips. The
// corpus is extended here with cross products of independent
// definitions, with and without a predicate on the outer loop, so rows
// that nest two unrelated loops stay in the walker's order. (Atomic
// values are drawn from 0..999, so X < 500 keeps about half of them.)
TEST_P(VmDifferentialTest, VmMatchesTreeWalkerOverCorpus) {
  DoemDatabase d = MakeDoem();
  std::vector<std::string> queries = ChorelQueryCorpus(alphabet());
  std::vector<std::string> cross_products;
  for (size_t i = 0; i < std::min<size_t>(alphabet(), 4); ++i) {
    std::string a = "l" + std::to_string(i);
    std::string b = "l" + std::to_string((i + 1) % alphabet());
    std::string cross = "select X, Y from " + a + " X, " + b + " Y";
    cross_products.push_back(cross);
    cross_products.push_back(cross + " where X < 500");
  }
  queries.insert(queries.end(), cross_products.begin(), cross_products.end());
  size_t cross_rows = 0;
  for (bool seed : {false, true}) {
    chorel::ChorelEngineOptions vm_on;
    vm_on.seed_from_index = seed;
    chorel::ChorelEngineOptions vm_off = vm_on;
    vm_off.use_vm = false;
    chorel::ChorelEngineOptions checked = vm_on;
    checked.verify_vm = true;
    chorel::ChorelEngine fast(d, vm_on);
    chorel::ChorelEngine slow(d, vm_off);
    chorel::ChorelEngine veri(d, checked);
    for (const std::string& q : queries) {
      for (chorel::Strategy strategy :
           {chorel::Strategy::kDirect, chorel::Strategy::kTranslated}) {
        auto a = fast.Run(q, strategy);
        auto b = slow.Run(q, strategy);
        ExpectSameResult(a, b, q);
        auto c = veri.Run(q, strategy);
        ExpectSameResult(c, b, "verify_vm: " + q);
        if (b.ok() && std::find(cross_products.begin(), cross_products.end(),
                                q) != cross_products.end()) {
          cross_rows += b->rows.size();
        }
      }
    }
  }
  EXPECT_GT(cross_rows, 0u);  // the cross products are not vacuous
}

// max_rows is a row-count error raised mid-enumeration; the VM must
// surface exactly the walker's status (via fallback when it cannot).
TEST_P(VmDifferentialTest, MaxRowsStatusParity) {
  DoemDatabase d = MakeDoem();
  chorel::ChorelEngineOptions vm_off;
  vm_off.use_vm = false;
  chorel::ChorelEngine fast(d);
  chorel::ChorelEngine slow(d, vm_off);
  lorel::EvalOptions opts;
  opts.max_rows = 3;
  for (const std::string& q : ChorelQueryCorpus(alphabet())) {
    for (chorel::Strategy strategy :
         {chorel::Strategy::kDirect, chorel::Strategy::kTranslated}) {
      ExpectSameResult(fast.Run(q, strategy, opts),
                       slow.Run(q, strategy, opts), "max_rows=3: " + q);
    }
  }
}

// ------------------------------------------ polling-time queries

// Chorel filter queries with QSS time variables (t[0], t[-1], ...) over
// a churning guide: the VM resolves the same windows, seeds from the
// same index postings, and returns the same rows at every poll.
TEST(VmPollingTimeTest, TimeWindowQueriesMatchWalkerEveryPoll) {
  OemDatabase guide = testing::SyntheticGuide(14);
  OemHistory churn = testing::SyntheticGuideChurn(guide, 10, 4);
  auto d = DoemDatabase::Build(guide, churn);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  const std::vector<std::string> queries = {
      "select guide.restaurant<cre at T> where T > t[-1]",
      "select T, OV, NV from guide.restaurant.price"
      "<upd at T from OV to NV> where T > t[-1] and T <= t[0]",
      "select X from guide.<add at T>restaurant X where T > t[-1]",
      "select R, T from guide.restaurant.<rem at T>parking R "
      "where T > t[-2]",
  };
  for (bool seed : {false, true}) {
    chorel::ChorelEngineOptions vm_on;
    vm_on.seed_from_index = seed;
    chorel::ChorelEngineOptions vm_off = vm_on;
    vm_off.use_vm = false;
    chorel::ChorelEngine fast(*d, vm_on);
    chorel::ChorelEngine slow(*d, vm_off);
    std::vector<Timestamp> polls;
    polls.push_back(Timestamp(0));
    for (const HistoryStep& step : churn.steps()) {
      polls.push_back(step.time);
      lorel::EvalOptions opts;
      opts.polling_times = &polls;
      for (const std::string& q : queries) {
        for (chorel::Strategy strategy :
             {chorel::Strategy::kDirect, chorel::Strategy::kTranslated}) {
          ExpectSameResult(fast.Run(q, strategy, opts),
                           slow.Run(q, strategy, opts),
                           q + " @" + std::to_string(polls.size()));
        }
      }
    }
  }
}

// ------------------------------------------ cross products

// A database where the left-to-right nesting is lopsided: `wide` has
// many children, `rare` has two.
OemDatabase SkewedDb() {
  OemDatabase db;
  NodeId root = db.NewComplex();
  void(db.SetRoot(root));
  for (int i = 0; i < 64; ++i) {
    NodeId n = db.NewInt(i);
    void(db.AddArc(root, "wide", n));
  }
  for (int i = 0; i < 2; ++i) {
    NodeId n = db.NewInt(100 + i);
    void(db.AddArc(root, "rare", n));
  }
  return db;
}

// A cross product of independent definitions with a filter: the VM's
// rows come back in the walker's nesting order, byte for byte.
TEST(VmCostModelTest, ReorderedRunIsByteIdenticalToWalker) {
  auto d = DoemDatabase::Build(SkewedDb(), OemHistory());
  ASSERT_TRUE(d.ok());
  auto nq = lorel::ParseAndNormalize(
      "select X, Y from wide X, rare Y where X < 5");
  ASSERT_TRUE(nq.ok());
  auto p = vm::Compile(*nq);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  chorel::DoemView view(*d);
  auto got = vm::Run(*p, view, {});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto want = lorel::Evaluate(*nq, view);
  ASSERT_TRUE(want.ok());
  EXPECT_FALSE(want->rows.empty());
  EXPECT_EQ(got->RowsToString(), want->RowsToString());
  EXPECT_TRUE(got->answer.Equals(want->answer));
}

// ------------------------------------------ fallback coverage

// `exists` is outside VM coverage: compilation fails once (sticky), the
// walker answers, and the rows are exactly the walker's.
TEST(VmFallbackTest, ExistsQueryFallsBackToWalker) {
  OemDatabase guide = testing::SyntheticGuide(10);
  auto d = DoemDatabase::Build(guide, testing::SyntheticGuideHistory(guide, 4, 3));
  ASSERT_TRUE(d.ok());
  obs::MetricsRegistry metrics;
  chorel::ChorelEngineOptions vm_on;
  vm_on.metrics = &metrics;
  chorel::ChorelEngineOptions vm_off;
  vm_off.use_vm = false;
  chorel::ChorelEngine fast(*d, vm_on);
  chorel::ChorelEngine slow(*d, vm_off);
  const std::string q =
      "select X from guide.restaurant X "
      "where exists Y in X.name : Y = Y";
  auto compiled = chorel::CompileChorel(q);
  ASSERT_TRUE(compiled.ok());
  for (int i = 0; i < 3; ++i) {
    auto a = fast.RunCompiled(&*compiled, chorel::Strategy::kDirect);
    auto b = slow.Run(q, chorel::Strategy::kDirect);
    ExpectSameResult(a, b, q);
    ASSERT_TRUE(a.ok());
    EXPECT_FALSE(a->rows.empty());
  }
  // One sticky compile failure, zero VM executions, three walker runs.
  EXPECT_EQ(metrics.GetCounter("vm.compile_fallbacks", "")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("vm.runs", "")->value(), 0u);
  EXPECT_EQ(metrics.GetCounter("vm.compiles", "")->value(), 0u);
}

// A supported query on the same engine still compiles and runs on the
// VM — fallback is per-query, not per-engine.
TEST(VmFallbackTest, SupportedQueryStillCompiles) {
  OemDatabase guide = testing::SyntheticGuide(6);
  auto d = DoemDatabase::Build(guide, OemHistory());
  ASSERT_TRUE(d.ok());
  obs::MetricsRegistry metrics;
  chorel::ChorelEngineOptions vm_on;
  vm_on.metrics = &metrics;
  chorel::ChorelEngine engine(*d, vm_on);
  auto r = engine.Run("select guide.restaurant.name",
                      chorel::Strategy::kDirect);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->rows.empty());
  EXPECT_EQ(metrics.GetCounter("vm.compiles", "")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("vm.runs", "")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("vm.compile_fallbacks", "")->value(), 0u);
  EXPECT_GT(metrics.GetGauge("vm.program_instructions", "")->value(), 0);
}

// ------------------------------------------ index gauges

// The annotation-index posting sizes surface as chorel.index_postings_*
// gauges once the index is built.
TEST(VmMetricsTest, IndexPostingGaugesArePublished) {
  OemDatabase guide = testing::SyntheticGuide(8);
  OemHistory churn = testing::SyntheticGuideChurn(guide, 6, 4);
  auto d = DoemDatabase::Build(guide, churn);
  ASSERT_TRUE(d.ok());
  obs::MetricsRegistry metrics;
  chorel::ChorelEngineOptions opts;
  opts.seed_from_index = true;
  opts.metrics = &metrics;
  chorel::ChorelEngine engine(*d, opts);
  auto r = engine.Run("select guide.restaurant<cre at T> where T > 0",
                      chorel::Strategy::kDirect);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  AnnotationIndex fresh(*d);
  EXPECT_EQ(metrics.GetGauge("chorel.index_postings_cre", "")->value(),
            static_cast<int64_t>(fresh.cre_count()));
  EXPECT_EQ(metrics.GetGauge("chorel.index_postings_upd", "")->value(),
            static_cast<int64_t>(fresh.upd_count()));
  EXPECT_EQ(metrics.GetGauge("chorel.index_postings_add", "")->value(),
            static_cast<int64_t>(fresh.add_count()));
  EXPECT_EQ(metrics.GetGauge("chorel.index_postings_rem", "")->value(),
            static_cast<int64_t>(fresh.rem_count()));
}

// ------------------------------------------ disassembler smoke

TEST(VmBytecodeTest, DisassembleListsOpcodes) {
  auto nq = lorel::ParseAndNormalize(
      "select guide.restaurant<cre at T> where T > 100");
  ASSERT_TRUE(nq.ok());
  auto p = vm::Compile(*nq);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  std::string listing = p->Disassemble();
  EXPECT_NE(listing.find("SeedAnn"), std::string::npos) << listing;
  EXPECT_NE(listing.find("Emit"), std::string::npos) << listing;
  EXPECT_NE(listing.find("Halt"), std::string::npos) << listing;
}

// ------------------------------------------ QSS runs

// End-to-end: a subscription service filtering on the VM, verifying
// every evaluation against the tree walker, matches one pinned to the
// walker byte for byte (an oracle instance, tests/oracle.h).
TEST(VmQssTest, VmFilteredServiceMatchesWalkerFilteredService) {
  const oracle::Scenario s = oracle::FilterScenario(12, 10);
  const oracle::Output vm =
      oracle::ExpectSame(s, {}, oracle::Execute(s, {}), {.vm = true});
  EXPECT_TRUE(vm.report.errors.empty())
      << "verify_vm_filter tripped: "
      << vm.report.errors.front().status.ToString();
  EXPECT_FALSE(vm.notifications.empty())
      << "comparison is vacuous: no notifications fired";
}

}  // namespace
}  // namespace doem
