#include <gtest/gtest.h>

#include <algorithm>

#include "chorel/chorel.h"
#include "chorel/translate.h"
#include "oracle.h"
#include "testing/guide.h"

namespace doem {
namespace chorel {
namespace {

using doem::testing::BuildGuide;
using doem::testing::Guide;
using doem::testing::GuideDoem;
using doem::testing::GuideHistory;
using doem::testing::GuideT1;
using doem::testing::GuideT2;
using doem::testing::GuideT3;
using lorel::QueryResult;
using lorel::RtVal;

QueryResult MustRun(const DoemDatabase& d, const std::string& q,
                    Strategy s) {
  auto r = RunChorel(d, q, s);
  EXPECT_TRUE(r.ok()) << q << "\n" << r.status().ToString();
  if (!r.ok()) return QueryResult{};
  return std::move(r).value();
}

using oracle::SortedRows;

std::vector<NodeId> NodeColumn(const QueryResult& r, size_t col = 0) {
  std::vector<NodeId> out;
  for (const auto& row : r.rows) {
    if (col < row.size() && row[col].kind == RtVal::Kind::kNode) {
      out.push_back(row[col].node);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

class ChorelBothStrategies
    : public ::testing::TestWithParam<Strategy> {};

INSTANTIATE_TEST_SUITE_P(Strategies, ChorelBothStrategies,
                         ::testing::Values(Strategy::kDirect,
                                           Strategy::kTranslated),
                         [](const auto& info) {
                           return info.param == Strategy::kDirect
                                      ? "Direct"
                                      : "Translated";
                         });

// --------------------------------------------------- Paper Example 4.2

TEST_P(ChorelBothStrategies, Example42NewRestaurants) {
  DoemDatabase d = GuideDoem();
  QueryResult r = MustRun(d, "select guide.<add>restaurant", GetParam());
  // Only Hakata (n2) was added; the two original restaurants' arcs carry
  // no add annotation.
  EXPECT_EQ(NodeColumn(r), std::vector<NodeId>{2});
}

// --------------------------------------------------- Paper Example 4.3

TEST_P(ChorelBothStrategies, Example43AddedBeforeJan4) {
  DoemDatabase d = GuideDoem();
  QueryResult r = MustRun(
      d, "select guide.<add at T>restaurant where T < 4Jan97", GetParam());
  EXPECT_EQ(NodeColumn(r), std::vector<NodeId>{2});
  // With the cutoff before t1 nothing matches.
  QueryResult r2 = MustRun(
      d, "select guide.<add at T>restaurant where T < 31Dec96", GetParam());
  EXPECT_TRUE(r2.rows.empty());
}

TEST_P(ChorelBothStrategies, Example43RewrittenForm) {
  DoemDatabase d = GuideDoem();
  QueryResult r = MustRun(
      d, "select R from guide.<add at T>restaurant R where T < 4Jan97",
      GetParam());
  EXPECT_EQ(NodeColumn(r), std::vector<NodeId>{2});
}

// --------------------------------------------------- Paper Example 4.4

TEST_P(ChorelBothStrategies, Example44PriceUpdates) {
  DoemDatabase d = GuideDoem();
  QueryResult r = MustRun(
      d,
      "select N, T, NV from guide.restaurant.price<upd at T to NV>, "
      "guide.restaurant.name N where T >= 1Jan97 and NV > 15",
      GetParam());
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.labels,
            (std::vector<std::string>{"name", "update-time", "new-value"}));
  // The name object is "Bangkok Cuisine" (an object in both strategies).
  ASSERT_EQ(r.rows[0][0].kind, RtVal::Kind::kNode);
  // T = 1Jan97 and NV = 20 as plain values in both strategies.
  EXPECT_EQ(r.rows[0][1].value, Value::Time(GuideT1()));
  EXPECT_EQ(r.rows[0][2].value, Value::Int(20));
}

TEST(ChorelTest, Example44AnswerPackaging) {
  // The answer object of Example 4.4: a complex object with components
  // name / update-time / new-value.
  DoemDatabase d = GuideDoem();
  QueryResult r = MustRun(
      d,
      "select N, T, NV from guide.restaurant.price<upd at T to NV>, "
      "guide.restaurant.name N where T >= 1Jan97 and NV > 15",
      Strategy::kDirect);
  const OemDatabase& ans = r.answer;
  std::vector<NodeId> tuples = ans.Children(ans.root(), "answer");
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(*ans.GetValue(ans.Child(tuples[0], "name")),
            Value::String("Bangkok Cuisine"));
  EXPECT_EQ(*ans.GetValue(ans.Child(tuples[0], "update-time")),
            Value::Time(GuideT1()));
  EXPECT_EQ(*ans.GetValue(ans.Child(tuples[0], "new-value")), Value::Int(20));
}

// --------------------------------------------------- Paper Example 4.5

TEST_P(ChorelBothStrategies, Example45AddedModeratePrice) {
  DoemDatabase d = GuideDoem();
  // Nothing matches on the original history: Janta's moderate price is
  // original, not added.
  QueryResult r0 = MustRun(
      d,
      "select N from guide.restaurant R, R.name N "
      "where R.<add at T>price = \"moderate\" and T >= 1Jan97",
      GetParam());
  EXPECT_TRUE(r0.rows.empty());

  // Give Hakata a moderate price in 1997; now it matches.
  ASSERT_TRUE(d.ApplyChangeSet(
                   Timestamp::FromDate(1997, 2, 2),
                   {ChangeOp::CreNode(30, Value::String("moderate")),
                    ChangeOp::AddArc(2, "price", 30)})
                  .ok());
  QueryResult r = MustRun(
      d,
      "select N from guide.restaurant R, R.name N "
      "where R.<add at T>price = \"moderate\" and T >= 1Jan97",
      GetParam());
  EXPECT_EQ(NodeColumn(r), std::vector<NodeId>{3});  // n3 = "Hakata"
}

// --------------------------------------------------- Other annotations

TEST_P(ChorelBothStrategies, RemAnnotation) {
  DoemDatabase d = GuideDoem();
  QueryResult r = MustRun(
      d, "select R from guide.restaurant R, R.<rem at T>parking P "
         "where T >= 8Jan97",
      GetParam());
  EXPECT_EQ(NodeColumn(r), std::vector<NodeId>{6})
      << "Janta's parking arc was removed at t3";
}

TEST_P(ChorelBothStrategies, RemovedArcInvisibleToPlainSteps) {
  DoemDatabase d = GuideDoem();
  // Section 5.2: only current arcs are accessible via their labels.
  QueryResult r = MustRun(d, "select guide.restaurant.parking", GetParam());
  EXPECT_EQ(NodeColumn(r), std::vector<NodeId>{7})
      << "still reachable via Bangkok only";
  QueryResult r2 = MustRun(
      d,
      "select P from guide.restaurant R, R.parking P, R.name N "
      "where N = \"Janta\"",
      GetParam());
  EXPECT_TRUE(r2.rows.empty());
}

TEST_P(ChorelBothStrategies, CreAnnotationWithFilter) {
  DoemDatabase d = GuideDoem();
  QueryResult r = MustRun(
      d,
      "select C from guide.restaurant R, R.comment<cre at T> C "
      "where T > 2Jan97",
      GetParam());
  EXPECT_EQ(NodeColumn(r), std::vector<NodeId>{5}) << "\"need info\" at t2";
}

TEST_P(ChorelBothStrategies, UpdOldValue) {
  DoemDatabase d = GuideDoem();
  QueryResult r = MustRun(
      d,
      "select OV, NV from guide.restaurant.price<upd from OV to NV>",
      GetParam());
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].value, Value::Int(10));
  EXPECT_EQ(r.rows[0][1].value, Value::Int(20));
  EXPECT_EQ(r.labels, (std::vector<std::string>{"old-value", "new-value"}));
}

TEST_P(ChorelBothStrategies, MultipleUpdatesYieldMultipleBindings) {
  DoemDatabase d = GuideDoem();
  ASSERT_TRUE(d.ApplyChangeSet(Timestamp::FromDate(1997, 3, 1),
                               {ChangeOp::UpdNode(1, Value::Int(25))})
                  .ok());
  QueryResult r = MustRun(
      d, "select T, OV, NV from guide.restaurant.price<upd at T from OV to NV>",
      GetParam());
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(SortedRows(r),
            SortedRows(MustRun(
                d,
                "select T, OV, NV from "
                "guide.restaurant.price<upd at T from OV to NV>",
                GetParam() == Strategy::kDirect ? Strategy::kTranslated
                                                : Strategy::kDirect)));
}

TEST_P(ChorelBothStrategies, PlainLorelOverDoemSeesCurrentSnapshot) {
  DoemDatabase d = GuideDoem();
  // Section 4.2.1: a standard Lorel query over a DOEM database has the
  // semantics of the same query over the current snapshot.
  QueryResult r = MustRun(d, "select guide.restaurant", GetParam());
  EXPECT_EQ(NodeColumn(r).size(), 3u);
  QueryResult r2 = MustRun(
      d, "select guide.restaurant where guide.restaurant.price < 15",
      GetParam());
  EXPECT_TRUE(r2.rows.empty()) << "price is 20 now, not 10";
  QueryResult r3 = MustRun(
      d, "select guide.restaurant where guide.restaurant.price < 20.5",
      GetParam());
  EXPECT_EQ(NodeColumn(r3).size(), 1u) << "the updated price 20 still fits";
}

// --------------------------------------------------- Translation details

TEST(TranslateTest, Example51Shape) {
  // The translated form of Example 4.5's query mentions the &-labels of
  // the Section 5.1 encoding.
  auto nq = lorel::ParseAndNormalize(
      "select N from guide.restaurant R, R.name N "
      "where R.<add at T>price = \"moderate\" and T >= 1Jan97");
  ASSERT_TRUE(nq.ok());
  auto t = TranslateToLorel(*nq);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  std::string s = t->ToString();
  EXPECT_NE(s.find("&price-history"), std::string::npos) << s;
  EXPECT_NE(s.find("&add"), std::string::npos) << s;
  EXPECT_NE(s.find("&target"), std::string::npos) << s;
  EXPECT_NE(s.find("&val"), std::string::npos)
      << "value access rewriting: " << s;
}

TEST(TranslateTest, SelectObjectVariableNotValRewritten) {
  // Section 5.2 end: an object variable in the select clause returns the
  // encoding object (with its history), not its &val.
  auto nq = lorel::ParseAndNormalize("select guide.restaurant.name");
  ASSERT_TRUE(nq.ok());
  auto t = TranslateToLorel(*nq);
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->select.size(), 1u);
  EXPECT_EQ(t->select[0].expr->kind, lorel::Expr::Kind::kVar);
}

TEST(TranslateTest, TranslatedAnswerCarriesHistory) {
  DoemDatabase d = GuideDoem();
  QueryResult r = MustRun(d,
                          "select N from guide.restaurant R, R.name N "
                          "where R.<add>name = N or N = N",
                          Strategy::kTranslated);
  // Simpler: just select a name object and check its packaging.
  QueryResult r2 = MustRun(d, "select guide.restaurant.name",
                           Strategy::kTranslated);
  const OemDatabase& ans = r2.answer;
  std::vector<NodeId> names = ans.Children(ans.root(), "name");
  ASSERT_FALSE(names.empty());
  // Each packaged name is an encoding object with a &val child.
  for (NodeId n : names) {
    EXPECT_NE(ans.Child(n, "&val"), kInvalidNode);
  }
}

TEST(TranslateTest, UpdRecordsTranslate) {
  auto nq = lorel::ParseAndNormalize(
      "select T from guide.restaurant.price<upd at T>");
  ASSERT_TRUE(nq.ok());
  auto t = TranslateToLorel(*nq);
  ASSERT_TRUE(t.ok());
  std::string s = t->ToString();
  EXPECT_NE(s.find("&upd"), std::string::npos) << s;
  EXPECT_NE(s.find("&time"), std::string::npos) << s;
  EXPECT_NE(s.find("&ov"), std::string::npos) << s;
  EXPECT_NE(s.find("&nv"), std::string::npos) << s;
}

// --------------------------------------------------- Virtual annotations

TEST(VirtualAnnotationTest, NodeValueAtTime) {
  DoemDatabase d = GuideDoem();
  // Section 4.2.2: guide.restaurant.price<at T> is the price value at T.
  auto r = RunChorel(d,
                     "select R from guide.restaurant R "
                     "where R.price<at 31Dec96> = 10",
                     Strategy::kDirect);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(NodeColumn(*r), std::vector<NodeId>{BuildGuide().bangkok});
  auto r2 = RunChorel(d,
                      "select R from guide.restaurant R "
                      "where R.price<at 2Jan97> = 10",
                      Strategy::kDirect);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->rows.empty()) << "price was 20 by then";
}

TEST(VirtualAnnotationTest, ArcExistenceAtTime) {
  DoemDatabase d = GuideDoem();
  // guide.<at T>restaurant: the restaurant arcs that existed at T.
  auto r = RunChorel(d, "select guide.<at 31Dec96>restaurant",
                     Strategy::kDirect);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(NodeColumn(*r).size(), 2u) << "Hakata not yet added";
  auto r2 = RunChorel(d, "select guide.<at 2Jan97>restaurant",
                      Strategy::kDirect);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(NodeColumn(*r2).size(), 3u);
}

TEST(VirtualAnnotationTest, UnsupportedInTranslation) {
  DoemDatabase d = GuideDoem();
  auto r = RunChorel(d, "select guide.<at 2Jan97>restaurant",
                     Strategy::kTranslated);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

// --------------------------------------------------- Differential checks

TEST(DifferentialTest, StrategiesAgreeOnQuerySuite) {
  DoemDatabase d = GuideDoem();
  // Extend the history to cover re-addition and more updates.
  ASSERT_TRUE(d.ApplyChangeSet(Timestamp::FromDate(1997, 2, 1),
                               {ChangeOp::AddArc(6, "parking", 7)})
                  .ok());
  ASSERT_TRUE(d.ApplyChangeSet(Timestamp::FromDate(1997, 3, 1),
                               {ChangeOp::UpdNode(1, Value::Int(25)),
                                ChangeOp::RemArc(6, "parking", 7)})
                  .ok());
  const char* queries[] = {
      "select guide.restaurant",
      "select guide.<add>restaurant",
      "select guide.<add at T>restaurant where T < 4Jan97",
      "select N, T, NV from guide.restaurant.price<upd at T to NV>, "
      "guide.restaurant.name N where T >= 1Jan97 and NV > 15",
      "select N from guide.restaurant R, R.name N "
      "where R.<add at T>price = \"moderate\" and T >= 1Jan97",
      "select R from guide.restaurant R, R.<rem at T>parking P",
      "select T, P from guide.restaurant R, R.<rem at T>parking P",
      "select T from guide.restaurant.comment<cre at T>",
      "select OV from guide.restaurant.price<upd from OV>",
      "select guide.restaurant where "
      "guide.restaurant.address.# like \"%Lytton%\"",
      "select R from guide.restaurant R where "
      "exists A in R.address : A.city = \"Palo Alto\"",
      "select R from guide.restaurant R, R.name N where not N = \"Janta\"",
      "select guide.#.price",
      "select X from guide.restaurant.parking.nearby-eats X",
  };
  ChorelEngine engine(d);
  for (const char* q : queries) {
    auto direct = engine.Run(q, Strategy::kDirect);
    auto translated = engine.Run(q, Strategy::kTranslated);
    ASSERT_TRUE(direct.ok()) << q << "\n" << direct.status().ToString();
    ASSERT_TRUE(translated.ok()) << q << "\n"
                                 << translated.status().ToString();
    EXPECT_EQ(SortedRows(*direct), SortedRows(*translated)) << q;
  }
}

}  // namespace
}  // namespace chorel
}  // namespace doem
namespace doem {
namespace chorel {
namespace {

TEST(WildcardAnnotationTest, AnnotationsOnPercentWildcard) {
  // Section 7 extension: annotation expressions on the '%' wildcard —
  // "which restaurants gained ANY subobject since Jan 2?"
  auto d = DoemDatabase::Build(doem::testing::BuildGuide().db,
                               doem::testing::GuideHistory());
  ASSERT_TRUE(d.ok());
  auto r = RunChorel(d.value(),
                     "select R from guide.restaurant R, R.<add at T>% X "
                     "where T > 2Jan97",
                     Strategy::kDirect);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u) << "Hakata gained its comment at t2";
  EXPECT_EQ(r->rows[0][0].node, NodeId{2});

  // Node annotations on '%': any freshly created subobject.
  auto r2 = RunChorel(d.value(),
                      "select X from guide.restaurant.%<cre at T> X "
                      "where T > 2Jan97",
                      Strategy::kDirect);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r2->rows.size(), 1u) << "the 'need info' comment node";

  // Removal via any label.
  auto r3 = RunChorel(d.value(),
                      "select R from guide.restaurant R, R.<rem>% X",
                      Strategy::kDirect);
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  EXPECT_EQ(r3->rows.size(), 1u) << "Janta lost its parking";

  // Virtual annotation on '%': arcs live at a past time, any label.
  auto r4 = RunChorel(d.value(),
                      "select X from guide.<at 31Dec96>% X",
                      Strategy::kDirect);
  ASSERT_TRUE(r4.ok()) << r4.status().ToString();
  EXPECT_EQ(r4->rows.size(), 2u) << "two restaurants existed then";

  // Translated strategy reports a clean Unsupported.
  auto r5 = RunChorel(d.value(),
                      "select R from guide.restaurant R, R.<add>% X",
                      Strategy::kTranslated);
  ASSERT_FALSE(r5.ok());
  EXPECT_EQ(r5.status().code(), StatusCode::kUnsupported);
}

}  // namespace
}  // namespace chorel
}  // namespace doem
