#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "lorel/coerce.h"
#include "lorel/lexer.h"
#include "lorel/lorel.h"
#include "testing/generators.h"
#include "testing/guide.h"

namespace doem {
namespace lorel {
namespace {

using doem::testing::BuildGuide;
using doem::testing::Guide;

// Convenience: run a query over a database, expecting success.
QueryResult RunOn(const OemDatabase& db, const std::string& text) {
  OemView view(db);
  auto r = RunQuery(text, view);
  EXPECT_TRUE(r.ok()) << text << "\n" << r.status().ToString();
  if (!r.ok()) return QueryResult{};
  return std::move(r).value();
}

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

// ------------------------------------------------------------------ Lexer

TEST(LexerTest, TokenKinds) {
  auto toks = Lex("select x.y-z, 10 2.5 \"s\" 4Jan97 <= < > >= = != <> # t[-1]");
  ASSERT_TRUE(toks.ok()) << toks.status().ToString();
  std::vector<TokenKind> kinds;
  for (const Token& t : *toks) kinds.push_back(t.kind);
  EXPECT_EQ(kinds, (std::vector<TokenKind>{
                       TokenKind::kIdent, TokenKind::kIdent, TokenKind::kDot,
                       TokenKind::kIdent, TokenKind::kComma, TokenKind::kInt,
                       TokenKind::kReal, TokenKind::kString, TokenKind::kDate,
                       TokenKind::kLe, TokenKind::kLAngle, TokenKind::kRAngle,
                       TokenKind::kGe, TokenKind::kEq, TokenKind::kNe,
                       TokenKind::kNe, TokenKind::kHash, TokenKind::kIdent,
                       TokenKind::kLBracket, TokenKind::kMinus,
                       TokenKind::kInt, TokenKind::kRBracket,
                       TokenKind::kEnd}));
  EXPECT_EQ((*toks)[3].text, "y-z") << "'-' joins identifiers";
}

TEST(LexerTest, DateLiteral) {
  auto toks = Lex("4Jan97");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].date_value, Timestamp::FromDate(1997, 1, 4));
  EXPECT_FALSE(Lex("4Xyz97").ok());
}

TEST(LexerTest, CommentsAndErrors) {
  auto toks = Lex("select -- a comment\n x");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ(toks->size(), 3u);
  EXPECT_FALSE(Lex("\"unterminated").ok());
  EXPECT_FALSE(Lex("a ~ b").ok());
}

// ----------------------------------------------------------------- Parser

TEST(ParserTest, PaperQueriesParse) {
  const char* queries[] = {
      // Example 4.1.
      "select guide.restaurant where guide.restaurant.price < 20.5",
      // Example 4.2.
      "select guide.<add>restaurant",
      // Example 4.3 (both the sugared and rewritten forms).
      "select guide.<add at T>restaurant where T < 4Jan97",
      "select R from guide.<add at T>restaurant R where T < 4Jan97",
      // Example 4.4.
      "select N, T, NV from guide.restaurant.price<upd at T to NV>, "
      "guide.restaurant.name N where T >= 1Jan97 and NV > 15",
      // Example 4.5.
      "select N from guide.restaurant R, R.name N "
      "where R.<add at T>price = \"moderate\" and T >= 1Jan97",
      // Section 6 polling query body.
      "select guide.restaurant "
      "where guide.restaurant.address.# like \"%Lytton%\"",
      // Section 6 filter query body.
      "select LyttonRestaurants.restaurant<cre at T> where T > t[-1]",
  };
  for (const char* q : queries) {
    auto r = ParseQuery(q);
    EXPECT_TRUE(r.ok()) << q << "\n" << r.status().ToString();
  }
}

TEST(ParserTest, RoundTripToString) {
  auto q = ParseQuery(
      "select N, T from guide.restaurant R, R.name N "
      "where (R.<add at T>price = \"moderate\" or not T >= 1Jan97) "
      "and exists C in R.comment : C like \"%full%\"");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto q2 = ParseQuery(q->ToString());
  ASSERT_TRUE(q2.ok()) << q->ToString() << "\n" << q2.status().ToString();
  EXPECT_EQ(q->ToString(), q2->ToString());
}

TEST(ParserTest, AnnotationPositionsEnforced) {
  EXPECT_FALSE(ParseQuery("select guide.<cre>restaurant").ok())
      << "cre is a node annotation";
  EXPECT_FALSE(ParseQuery("select guide.restaurant<add>").ok())
      << "add is an arc annotation";
  EXPECT_FALSE(ParseQuery("select guide.<add>#").ok())
      << "no annotations on wildcards";
}

TEST(ParserTest, ComparisonVsAnnotationDisambiguation) {
  // '<' after a path label can be either a node annotation or a
  // comparison; both must parse.
  auto q1 = ParseQuery("select x where x.price < 20");
  ASSERT_TRUE(q1.ok());
  auto q2 = ParseQuery("select x.price<upd at T> where T < 4Jan97");
  ASSERT_TRUE(q2.ok());
  EXPECT_NE(q2->ToString().find("<upd at T>"), std::string::npos);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("from x").ok());
  EXPECT_FALSE(ParseQuery("select").ok());
  EXPECT_FALSE(ParseQuery("select x where").ok());
  EXPECT_FALSE(ParseQuery("select x where x <").ok());
  EXPECT_FALSE(ParseQuery("select x extra").ok());
  EXPECT_FALSE(ParseQuery("select t[1]").ok()) << "t[i] needs i <= 0";
  EXPECT_FALSE(ParseQuery("select x where exists in y : 1 = 1").ok());
}

// ----------------------------------------------------------- Normalization

TEST(NormalizeTest, SharedPrefixesUnify) {
  // Example 4.4: both paths range over the same restaurant.
  auto nq = ParseAndNormalize(
      "select N, T, NV from guide.restaurant.price<upd at T to NV>, "
      "guide.restaurant.name N where T >= 1Jan97 and NV > 15");
  ASSERT_TRUE(nq.ok()) << nq.status().ToString();
  // Defs: root.guide, guide.restaurant, restaurant.price<upd>,
  // restaurant.name — exactly 4, not 6.
  EXPECT_EQ(nq->defs.size(), 4u) << nq->ToString();
  EXPECT_EQ(nq->defs[2].source_var, nq->defs[3].source_var)
      << "price and name hang off the same restaurant variable";
}

TEST(NormalizeTest, CanonicalizationFillsFreshVariables) {
  auto nq = ParseAndNormalize("select guide.<add>restaurant");
  ASSERT_TRUE(nq.ok());
  const RangeDef& def = nq->defs.back();
  ASSERT_TRUE(def.step.arc_annot.has_value());
  EXPECT_FALSE(def.step.arc_annot->time_var.empty())
      << "canonical form has a time variable, as in Section 4.2.1";
  EXPECT_EQ(nq->var_kinds.at(def.step.arc_annot->time_var),
            VarKind::kValue);
}

TEST(NormalizeTest, PlainWherePathsStayLazyButCorrelate) {
  auto nq = ParseAndNormalize(
      "select guide.restaurant where guide.restaurant.price < 20.5");
  ASSERT_TRUE(nq.ok());
  // Only the select path is hoisted (guide, restaurant); the where path
  // evaluates lazily at the comparison, starting from the shared
  // guide.restaurant variable.
  EXPECT_EQ(nq->defs.size(), 2u) << nq->ToString();
  ASSERT_TRUE(nq->where != nullptr);
  ASSERT_EQ(nq->where->lhs->kind, Expr::Kind::kPath);
  EXPECT_TRUE(nq->where->lhs->path.head_is_var);
  EXPECT_EQ(nq->where->lhs->path.steps[0].label, nq->defs[1].var);
}

TEST(NormalizeTest, WherePathsWithUserVariablesAreHoisted) {
  // Example 4.5: T spans two conjuncts, so the path binding it must be
  // hoisted to whole-where scope.
  auto nq = ParseAndNormalize(
      "select N from guide.restaurant R, R.name N "
      "where R.<add at T>price = \"moderate\" and T >= 1Jan97");
  ASSERT_TRUE(nq.ok());
  // guide, R, N, and the hoisted <add at T>price def.
  EXPECT_EQ(nq->defs.size(), 4u) << nq->ToString();
  EXPECT_EQ(nq->defs.back().step.arc_annot->time_var, "T");
}

TEST(NormalizeTest, DefaultLabels) {
  auto nq = ParseAndNormalize(
      "select N, T, NV from guide.restaurant.price<upd at T to NV>, "
      "guide.restaurant.name N");
  ASSERT_TRUE(nq.ok());
  EXPECT_EQ(nq->labels,
            (std::vector<std::string>{"name", "update-time", "new-value"}));
}

TEST(NormalizeTest, AsLabelOverrides) {
  auto nq = ParseAndNormalize("select guide.restaurant.name as nom");
  ASSERT_TRUE(nq.ok());
  EXPECT_EQ(nq->labels, std::vector<std::string>{"nom"});
}

TEST(NormalizeTest, DuplicateVariableRejected) {
  EXPECT_FALSE(
      ParseAndNormalize("select R from guide.restaurant R, guide.name R")
          .ok());
}

// ----------------------------------------------------------- Coercion

TEST(CoerceTest, NumericCoercion) {
  EXPECT_TRUE(CompareValues(Value::Int(10), BinOp::kLt, Value::Real(20.5)));
  EXPECT_TRUE(CompareValues(Value::Real(1.5), BinOp::kGt, Value::Int(1)));
  EXPECT_TRUE(CompareValues(Value::Int(3), BinOp::kEq, Value::Real(3.0)));
  EXPECT_TRUE(CompareValues(Value::String("7"), BinOp::kLt, Value::Int(8)));
  EXPECT_FALSE(
      CompareValues(Value::String("moderate"), BinOp::kLt, Value::Real(20.5)))
      << "failed coercion returns false, not an error (Example 4.1)";
}

TEST(CoerceTest, StringAndLike) {
  EXPECT_TRUE(
      CompareValues(Value::String("abc"), BinOp::kLt, Value::String("abd")));
  EXPECT_TRUE(CompareValues(Value::String("120 Lytton"), BinOp::kLike,
                            Value::String("%Lytton%")));
  EXPECT_FALSE(CompareValues(Value::String("120 Lytton"), BinOp::kLike,
                             Value::String("Lytton")));
  EXPECT_TRUE(CompareValues(Value::Int(120), BinOp::kLike,
                            Value::String("1_0")));
}

TEST(CoerceTest, TimestampCoercion) {
  Value t = Value::Time(Timestamp::FromDate(1997, 1, 5));
  EXPECT_TRUE(CompareValues(t, BinOp::kGt,
                            Value::Time(Timestamp::FromDate(1997, 1, 1))));
  EXPECT_TRUE(CompareValues(t, BinOp::kEq, Value::String("5Jan97")));
  EXPECT_TRUE(CompareValues(Value::String("1997-01-04"), BinOp::kLt, t));
  EXPECT_FALSE(CompareValues(t, BinOp::kEq, Value::String("not a date")));
}

TEST(CoerceTest, ComplexAndBool) {
  EXPECT_FALSE(CompareValues(Value::Complex(), BinOp::kEq, Value::Complex()));
  EXPECT_TRUE(CompareValues(Value::Bool(true), BinOp::kEq, Value::Bool(true)));
  EXPECT_FALSE(CompareValues(Value::Bool(true), BinOp::kLt, Value::Bool(false)))
      << "booleans are not ordered";
  EXPECT_FALSE(CompareValues(Value::Bool(true), BinOp::kEq, Value::Int(1)));
}

// ----------------------------------------------------------- Evaluation

TEST(EvalTest, Example41PriceBelow20_5) {
  Guide g = BuildGuide();
  QueryResult r = RunOn(
      g.db, "select guide.restaurant where guide.restaurant.price < 20.5");
  // Only Bangkok Cuisine: integer 10 coerces; "moderate" fails; the third
  // restaurant doesn't exist yet (no history applied here) — Figure 2 has
  // two restaurants.
  EXPECT_EQ(NodeColumn(r), std::vector<NodeId>{g.bangkok});
}

TEST(EvalTest, SelectAllRestaurants) {
  Guide g = BuildGuide();
  QueryResult r = RunOn(g.db, "select guide.restaurant");
  EXPECT_EQ(NodeColumn(r), (std::vector<NodeId>{g.janta, g.bangkok}));
}

TEST(EvalTest, FromClauseAndExplicitVariables) {
  Guide g = BuildGuide();
  QueryResult r = RunOn(g.db,
                      "select N from guide.restaurant R, R.name N "
                      "where R.price = 10");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].kind, RtVal::Kind::kNode);
  EXPECT_EQ(*g.db.GetValue(r.rows[0][0].node), Value::String("Bangkok Cuisine"));
}

TEST(EvalTest, SharedPrefixCorrelation) {
  // price and name correlate through the shared guide.restaurant prefix:
  // no cross-product of Bangkok's price with Janta's name.
  Guide g = BuildGuide();
  QueryResult r =
      RunOn(g.db,
          "select guide.restaurant.name where guide.restaurant.price = 10");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(*g.db.GetValue(r.rows[0][0].node),
            Value::String("Bangkok Cuisine"));
}

TEST(EvalTest, MissingSubobjectMeansFalseNotError) {
  Guide g = BuildGuide();
  // No restaurant has a "rating" subobject.
  QueryResult r = RunOn(
      g.db, "select guide.restaurant where guide.restaurant.rating = 5");
  EXPECT_TRUE(r.rows.empty());
}

TEST(EvalTest, WildcardHash) {
  Guide g = BuildGuide();
  // The Section 6 polling query: '#' matches a path of length >= 0, so it
  // covers both the atomic address "120 Lytton" (length 0) and the street
  // "Lytton" inside Janta's complex address.
  QueryResult r = RunOn(g.db,
                      "select guide.restaurant where "
                      "guide.restaurant.address.# like \"%Lytton%\"");
  EXPECT_EQ(NodeColumn(r), (std::vector<NodeId>{g.janta, g.bangkok}));
}

TEST(EvalTest, WildcardHandlesCycles) {
  Guide g = BuildGuide();
  // guide.# traverses the parking/nearby-eats cycle without diverging.
  QueryResult r = RunOn(g.db, "select guide.#");
  // Every node reachable from the guide object, including itself.
  EXPECT_EQ(r.rows.size(), g.db.node_count() - 1)
      << "all nodes except the anonymous root";
}

TEST(EvalTest, SharedSubobjectReachedTwiceOnce) {
  Guide g = BuildGuide();
  QueryResult r = RunOn(g.db, "select guide.restaurant.parking");
  EXPECT_EQ(NodeColumn(r), std::vector<NodeId>{g.parking})
      << "n7 selected via both restaurants, deduplicated";
}

TEST(EvalTest, MultiItemSelectPackaging) {
  Guide g = BuildGuide();
  QueryResult r = RunOn(g.db,
                      "select R.name, R.price from guide.restaurant R "
                      "where R.price < 20.5");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.labels, (std::vector<std::string>{"name", "price"}));
  // Packaging: root --answer--> tuple --name--> ..., --price--> ...
  const OemDatabase& ans = r.answer;
  std::vector<NodeId> tuples = ans.Children(ans.root(), "answer");
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(*ans.GetValue(ans.Child(tuples[0], "name")),
            Value::String("Bangkok Cuisine"));
  EXPECT_EQ(*ans.GetValue(ans.Child(tuples[0], "price")), Value::Int(10));
}

TEST(EvalTest, SingleItemPackagingCopiesSubgraph) {
  Guide g = BuildGuide();
  QueryResult r = RunOn(g.db, "select guide.restaurant where "
                            "guide.restaurant.name = \"Janta\"");
  const OemDatabase& ans = r.answer;
  std::vector<NodeId> rs = ans.Children(ans.root(), "restaurant");
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs[0], g.janta) << "ids preserved";
  // Recursively includes subobjects — the complex address and the shared
  // parking object, with the cycle intact.
  EXPECT_EQ(*ans.GetValue(ans.Child(ans.Child(rs[0], "address"), "street")),
            Value::String("Lytton"));
  NodeId parking = ans.Child(rs[0], "parking");
  ASSERT_EQ(parking, g.parking);
  EXPECT_EQ(ans.Child(parking, "nearby-eats"), g.bangkok);
  EXPECT_TRUE(ans.Validate().ok());
}

TEST(EvalTest, ExplicitExists) {
  Guide g = BuildGuide();
  QueryResult r = RunOn(g.db,
                      "select R from guide.restaurant R where "
                      "exists A in R.address : A.city = \"Palo Alto\"");
  EXPECT_EQ(NodeColumn(r), std::vector<NodeId>{g.janta});
}

TEST(EvalTest, NotAndOr) {
  Guide g = BuildGuide();
  QueryResult r = RunOn(g.db,
                      "select R from guide.restaurant R where "
                      "R.cuisine = \"Indian\" or R.price = \"moderate\"");
  EXPECT_EQ(NodeColumn(r).size(), 2u);

  QueryResult r2 = RunOn(g.db,
                       "select R from guide.restaurant R, R.name N where "
                       "not N = \"Janta\"");
  EXPECT_EQ(NodeColumn(r2), std::vector<NodeId>{g.bangkok});
}

TEST(EvalTest, ComparingComplexObjectIsFalse) {
  Guide g = BuildGuide();
  // Janta's address is complex: comparing it to a string is false, not an
  // error.
  QueryResult r = RunOn(g.db,
                      "select R from guide.restaurant R where "
                      "R.address = \"120 Lytton\"");
  EXPECT_EQ(NodeColumn(r), std::vector<NodeId>{g.bangkok});
}

TEST(EvalTest, UnknownEntryNameYieldsEmpty) {
  Guide g = BuildGuide();
  QueryResult r = RunOn(g.db, "select nonexistent.thing");
  EXPECT_TRUE(r.rows.empty());
}

TEST(EvalTest, ChorelOverPlainOemIsUnsupported) {
  Guide g = BuildGuide();
  OemView view(g.db);
  auto r = RunQuery("select guide.<add>restaurant", view);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

TEST(EvalTest, TimeRefWithoutPollingTimesFails) {
  Guide g = BuildGuide();
  OemView view(g.db);
  auto r = RunQuery("select guide.restaurant where t[0] > 1Jan97", view);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

TEST(EvalTest, TimeRefResolution) {
  Guide g = BuildGuide();
  OemView view(g.db);
  std::vector<Timestamp> times = {Timestamp(10), Timestamp(20)};
  EvalOptions opts;
  opts.polling_times = &times;
  // t[0]=20, t[-1]=10, t[-2]=-inf.
  auto r = RunQuery(
      "select guide.restaurant where t[0] = 20 and t[-1] = 10", view, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 2u);
  auto r2 = RunQuery("select guide.restaurant where t[-2] < 1Jan1900", view,
                     opts);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->rows.size(), 2u) << "t[-2] is negative infinity";
}

TEST(EvalTest, MaxRowsGuard) {
  Guide g = BuildGuide();
  OemView view(g.db);
  EvalOptions opts;
  opts.max_rows = 1;
  auto r = RunQuery("select guide.restaurant", view, opts);
  EXPECT_FALSE(r.ok());
}

TEST(EvalTest, SelectLiteral) {
  Guide g = BuildGuide();
  QueryResult r = RunOn(g.db, "select 42 as answer-to-everything");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].value, Value::Int(42));
  EXPECT_EQ(r.labels[0], "answer-to-everything");
}

TEST(EvalTest, LikeOnPollingQueryShape) {
  // The full Section 6 polling query over the Guide database.
  Guide g = BuildGuide();
  QueryResult r = RunOn(g.db,
                      "select guide.restaurant where "
                      "guide.restaurant.address.# like \"%Lytton%\"");
  EXPECT_EQ(r.rows.size(), 2u);
  QueryResult r2 = RunOn(g.db,
                       "select guide.restaurant where "
                       "guide.restaurant.address.# like \"%Castro%\"");
  EXPECT_TRUE(r2.rows.empty());
}

}  // namespace
}  // namespace lorel
}  // namespace doem
namespace doem {
namespace lorel {
namespace {

TEST(EvalTest, PercentSingleArcWildcard) {
  doem::testing::Guide g = doem::testing::BuildGuide();
  // guide.% : every direct child of the guide object (the restaurants).
  QueryResult r = RunOn(g.db, "select guide.%");
  EXPECT_EQ(r.rows.size(), 2u);
  // guide.restaurant.%.city : only Janta's complex address has a city.
  QueryResult r2 = RunOn(g.db, "select guide.restaurant.%.city");
  ASSERT_EQ(r2.rows.size(), 1u);
  EXPECT_EQ(*g.db.GetValue(r2.rows[0][0].node), Value::String("Palo Alto"));
  // Unlike '#', '%' does not match length-0 paths.
  QueryResult r3 = RunOn(g.db,
                         "select R from guide.restaurant R "
                         "where R.address.% like \"%Lytton%\"");
  EXPECT_EQ(r3.rows.size(), 1u) << "only the complex address has depth 2";
  EXPECT_TRUE(ParseQuery("select guide.<add>%").ok())
      << "annotations on '%' are the Section 7 extension";
  EXPECT_FALSE(ParseQuery("select guide.<add>#").ok())
      << "annotations on '#' stay unsupported";
}

}  // namespace
}  // namespace lorel
}  // namespace doem
namespace doem {
namespace lorel {
namespace {

TEST(EvalTest, FromItemAliasingSharesBindings) {
  // Two from-items with the same textual path: the second variable is an
  // alias of the first (Lorel prefix sharing), so conditions through one
  // constrain the other.
  doem::testing::Guide g = doem::testing::BuildGuide();
  QueryResult r = RunOn(g.db,
                        "select X from guide.restaurant R, "
                        "guide.restaurant X where R.price = 10");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].node, g.bangkok);
}

TEST(EvalTest, ExistsRangeFromRootEntry) {
  doem::testing::Guide g = doem::testing::BuildGuide();
  QueryResult r = RunOn(g.db,
                        "select 1 as yes where "
                        "exists X in guide.restaurant : X.price = 10");
  EXPECT_EQ(r.rows.size(), 1u);
  QueryResult r2 = RunOn(g.db,
                         "select 1 as yes where "
                         "exists X in guide.cinema : X.price = 10");
  EXPECT_TRUE(r2.rows.empty());
}

TEST(EvalTest, NestedExists) {
  doem::testing::Guide g = doem::testing::BuildGuide();
  QueryResult r = RunOn(
      g.db,
      "select R from guide.restaurant R where "
      "exists A in R.address : exists C in A.city : C = \"Palo Alto\"");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].node, g.janta);
}

TEST(EvalTest, ValueRowPackagingUsesAtomNodes) {
  doem::testing::Guide g = doem::testing::BuildGuide();
  QueryResult r = RunOn(g.db,
                        "select P from guide.restaurant.price P "
                        "where P = 10");
  // Single-item node select: packaged under the path's last label.
  ASSERT_EQ(r.labels, std::vector<std::string>{"price"});
  const OemDatabase& ans = r.answer;
  std::vector<NodeId> prices = ans.Children(ans.root(), "price");
  ASSERT_EQ(prices.size(), 1u);
  EXPECT_EQ(*ans.GetValue(prices[0]), Value::Int(10));
}

TEST(EvalTest, SelectSameNodeTwiceInOneRow) {
  doem::testing::Guide g = doem::testing::BuildGuide();
  QueryResult r = RunOn(g.db,
                        "select R, R from guide.restaurant R "
                        "where R.price = 10");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].node, r.rows[0][1].node);
  EXPECT_TRUE(r.answer.Validate().ok());
}

TEST(EvalTest, KeywordsAreCaseInsensitive) {
  doem::testing::Guide g = doem::testing::BuildGuide();
  QueryResult r = RunOn(g.db,
                        "SELECT R FROM guide.restaurant R "
                        "WHERE R.price = 10 AND NOT R.cuisine = \"Thai\"");
  EXPECT_EQ(r.rows.size(), 1u);
}

// ------------------------------------------------------------ Packaging

// PackageResult as it was before it read out-arcs by reference: a BFS per
// row with its own seen set and deque that creates every node before any
// arc, and a HasArc probe before each arc. The reference the packaged
// answers are compared with.
class ReferencePackager {
 public:
  explicit ReferencePackager(const GraphView& view) : view_(view) {}

  Result<NodeId> CopyIntoAnswer(NodeId n, OemDatabase* answer) {
    auto done = copied_.find(n);
    if (done != copied_.end()) return done->second;
    std::vector<NodeId> order;
    std::deque<NodeId> queue{n};
    std::unordered_set<NodeId> seen{n};
    while (!queue.empty()) {
      NodeId cur = queue.front();
      queue.pop_front();
      if (copied_.contains(cur)) continue;
      order.push_back(cur);
      for (const OutArc& a : view_.LiveOutArcs(cur)) {
        if (seen.insert(a.child).second) queue.push_back(a.child);
      }
    }
    for (NodeId cur : order) {
      DOEM_RETURN_IF_ERROR(answer->CreNode(cur, view_.value(cur)));
      copied_.emplace(cur, cur);
    }
    for (NodeId cur : order) {
      for (const OutArc& a : view_.LiveOutArcs(cur)) {
        if (!answer->HasArc(cur, a.label, a.child)) {
          DOEM_RETURN_IF_ERROR(answer->AddArc(cur, a.label, a.child));
        }
      }
    }
    return n;
  }

 private:
  const GraphView& view_;
  std::unordered_map<NodeId, NodeId> copied_;
};

Status ReferencePackageResult(const GraphView& view, size_t select_count,
                              QueryResult* result) {
  OemDatabase& answer = result->answer;
  answer.ReserveIdsBelow(view.IdFloor());
  NodeId root = answer.NewComplex();
  DOEM_RETURN_IF_ERROR(answer.SetRoot(root));
  ReferencePackager packager(view);
  bool single = select_count == 1;
  for (const auto& row : result->rows) {
    NodeId parent = root;
    if (!single) {
      parent = answer.NewComplex();
      DOEM_RETURN_IF_ERROR(answer.AddArc(root, "answer", parent));
    }
    for (size_t i = 0; i < row.size(); ++i) {
      const RtVal& v = row[i];
      const std::string& label =
          result->labels[i].empty() ? "value" : result->labels[i];
      NodeId target;
      if (v.kind == RtVal::Kind::kNode) {
        auto copied = packager.CopyIntoAnswer(v.node, &answer);
        if (!copied.ok()) return copied.status();
        target = *copied;
      } else {
        target = answer.NewNode(v.value);
      }
      if (!answer.HasArc(parent, label, target)) {
        DOEM_RETURN_IF_ERROR(answer.AddArc(parent, label, target));
      }
    }
  }
  return Status::OK();
}

// An OemView that hands out no out-arc references, so packaging copies
// each node's arcs as it does over a DOEM view.
class CopyingOemView : public OemView {
 public:
  using OemView::OemView;
  const std::vector<OutArc>* OutArcsRef(NodeId) const override {
    return nullptr;
  }
};

// Same nodes, values, id floor, out-arc lists and ArcSeq numbers.
void ExpectSameAnswer(const OemDatabase& got, const OemDatabase& want,
                      const std::string& where) {
  EXPECT_TRUE(got.Equals(want)) << where;
  EXPECT_EQ(got.NodeIds(), want.NodeIds()) << where;
  EXPECT_EQ(got.PeekNextId(), want.PeekNextId()) << where;
  for (NodeId n : want.NodeIds()) {
    ASSERT_EQ(got.OutArcs(n), want.OutArcs(n)) << where << " node " << n;
    for (const OutArc& a : want.OutArcs(n)) {
      EXPECT_EQ(got.ArcSeq({n, a.label, a.child}),
                want.ArcSeq({n, a.label, a.child}))
          << where << " " << Arc{n, a.label, a.child}.ToString();
    }
  }
}

TEST(PackagingTest, SameAnswerAsReference) {
  Guide g = BuildGuide();
  // 40 restaurants: shared parking objects with nearby-eats cycles back to
  // restaurants, and a guide object above the width bound.
  OemDatabase synthetic = doem::testing::SyntheticGuide(40);
  const std::vector<std::string> queries = {
      // One select item: whole restaurants, the cycle through n7 included.
      "select guide.restaurant",
      // The shared parking object, reached from two restaurants.
      "select guide.restaurant.parking",
      "select guide.restaurant.parking.nearby-eats",
      "select guide.#",
      "select guide.%",
      // Several items: a restaurant and its parking in one row share
      // nodes, and rows share parking objects.
      "select R, R.parking from guide.restaurant R",
      "select R.parking, R from guide.restaurant R",
      "select R.name, R.price, R.address from guide.restaurant R",
      // Atomic-valued rows: atom nodes, literals and both in one row.
      "select P from guide.restaurant.price P",
      "select 42 as answer",
      "select R.name, 7 as seven, \"x\" from guide.restaurant R",
  };
  for (const OemDatabase* db : {&g.db, &synthetic}) {
    for (const std::string& text : queries) {
      const std::string where =
          text + " over " + std::to_string(db->node_count()) + " nodes";
      OemView view(*db);
      auto got = RunQuery(text, view);
      ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
      ASSERT_FALSE(got->rows.empty()) << where;
      QueryResult want = *got;
      want.answer = OemDatabase();
      ASSERT_TRUE(ReferencePackageResult(view, want.labels.size(), &want).ok())
          << where;
      ASSERT_NO_FATAL_FAILURE(ExpectSameAnswer(got->answer, want.answer, where));

      QueryResult copied = *got;
      copied.answer = OemDatabase();
      CopyingOemView copying(*db);
      ASSERT_TRUE(PackageResult(copying, copied.labels.size(), &copied).ok())
          << where;
      ASSERT_NO_FATAL_FAILURE(
          ExpectSameAnswer(copied.answer, want.answer, where + " (copying)"));
    }
  }
}

}  // namespace
}  // namespace lorel
}  // namespace doem
