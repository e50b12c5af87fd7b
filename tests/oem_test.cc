#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "oem/change.h"
#include "oem/graph_compare.h"
#include "oem/history.h"
#include "oem/oem.h"
#include "oem/oem_text.h"
#include "oem/subgraph.h"
#include "oem/timestamp.h"
#include "oem/value.h"
#include "testing/generators.h"
#include "testing/guide.h"

namespace doem {
namespace {

using testing::BuildGuide;
using testing::Guide;
using testing::GuideHistory;

// ---------------------------------------------------------------- Value

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value::Complex().is_complex());
  EXPECT_EQ(Value::Int(42).AsInt(), 42);
  EXPECT_EQ(Value::Real(2.5).AsReal(), 2.5);
  EXPECT_EQ(Value::String("x").AsString(), "x");
  EXPECT_TRUE(Value::Bool(true).AsBool());
  EXPECT_EQ(Value::Time(Timestamp(7)).AsTime().ticks, 7);
}

TEST(ValueTest, StorageEqualityDistinguishesKinds) {
  EXPECT_EQ(Value::Int(1), Value::Int(1));
  EXPECT_NE(Value::Int(1), Value::Real(1.0));
  EXPECT_NE(Value::Int(1), Value::String("1"));
  EXPECT_NE(Value::Complex(), Value::Int(0));
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Complex().ToString(), "C");
  EXPECT_EQ(Value::Int(-3).ToString(), "-3");
  EXPECT_EQ(Value::Real(2.0).ToString(), "2.0");
  EXPECT_EQ(Value::String("a\"b").ToString(), "\"a\\\"b\"");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::String("abc").Hash(), Value::String("abc").Hash());
  EXPECT_NE(Value::Int(1).Hash(), Value::Real(1.0).Hash());
}

// ------------------------------------------------------------ Timestamp

TEST(TimestampTest, ParsePaperFormat) {
  Timestamp t;
  ASSERT_TRUE(Timestamp::Parse("1Jan97", &t));
  EXPECT_EQ(t, Timestamp::FromDate(1997, 1, 1));
  ASSERT_TRUE(Timestamp::Parse("30Dec96", &t));
  EXPECT_EQ(t, Timestamp::FromDate(1996, 12, 30));
  ASSERT_TRUE(Timestamp::Parse("8jan1997", &t));
  EXPECT_EQ(t, Timestamp::FromDate(1997, 1, 8));
}

TEST(TimestampTest, ParseIsoAndTicks) {
  Timestamp t;
  ASSERT_TRUE(Timestamp::Parse("1997-01-08", &t));
  EXPECT_EQ(t, Timestamp::FromDate(1997, 1, 8));
  ASSERT_TRUE(Timestamp::Parse("  42 ", &t));
  EXPECT_EQ(t.ticks, 42);
  ASSERT_TRUE(Timestamp::Parse("-3", &t));
  EXPECT_EQ(t.ticks, -3);
}

TEST(TimestampTest, ParseRejectsGarbage) {
  Timestamp t;
  EXPECT_FALSE(Timestamp::Parse("", &t));
  EXPECT_FALSE(Timestamp::Parse("Jannuary", &t));
  EXPECT_FALSE(Timestamp::Parse("32Foo97", &t));
  EXPECT_FALSE(Timestamp::Parse("1997-13-01", &t));
}

TEST(TimestampTest, OrderingAndFormatting) {
  EXPECT_LT(Timestamp::FromDate(1997, 1, 1), Timestamp::FromDate(1997, 1, 5));
  EXPECT_LT(Timestamp::NegativeInfinity(), Timestamp::FromDate(1900, 1, 1));
  EXPECT_EQ(Timestamp::FromDate(1997, 1, 8).ToString(), "8Jan1997");
  EXPECT_EQ(Timestamp(12345678).ToString(), "12345678");
  EXPECT_EQ(Timestamp::NegativeInfinity().ToString(), "-inf");
}

TEST(TimestampTest, DateRoundTrip) {
  for (int m = 1; m <= 12; ++m) {
    Timestamp t = Timestamp::FromDate(1996, m, 15);
    Timestamp parsed;
    ASSERT_TRUE(Timestamp::Parse(t.ToString(), &parsed)) << t.ToString();
    EXPECT_EQ(parsed, t);
  }
}

// -------------------------------------------------------------- OemDatabase

TEST(OemDatabaseTest, BuildAndLookup) {
  OemDatabase db;
  NodeId root = db.NewComplex();
  ASSERT_TRUE(db.SetRoot(root).ok());
  NodeId a = db.NewString("hello");
  ASSERT_TRUE(db.AddArc(root, "greeting", a).ok());

  EXPECT_TRUE(db.HasNode(a));
  EXPECT_TRUE(db.HasArc(root, "greeting", a));
  EXPECT_FALSE(db.HasArc(root, "other", a));
  EXPECT_EQ(db.GetValue(a)->AsString(), "hello");
  EXPECT_EQ(db.Child(root, "greeting"), a);
  EXPECT_EQ(db.node_count(), 2u);
  EXPECT_EQ(db.arc_count(), 1u);
  EXPECT_TRUE(db.Validate().ok());
}

TEST(OemDatabaseTest, GuideMatchesFigure2) {
  Guide g = BuildGuide();
  const OemDatabase& db = g.db;
  EXPECT_TRUE(db.Validate().ok());
  EXPECT_EQ(db.Child(db.root(), "guide"), g.guide)
      << "'guide' is the entry name on the anonymous root";

  std::vector<NodeId> restaurants = db.Children(g.guide, "restaurant");
  ASSERT_EQ(restaurants.size(), 2u);

  // Irregularity: integer vs string price.
  EXPECT_EQ(db.GetValue(db.Child(g.bangkok, "price"))->AsInt(), 10);
  EXPECT_EQ(db.GetValue(db.Child(g.janta, "price"))->AsString(), "moderate");

  // Irregularity: string vs complex address.
  EXPECT_TRUE(db.GetValue(db.Child(g.bangkok, "address"))->is_atomic());
  EXPECT_TRUE(db.GetValue(db.Child(g.janta, "address"))->is_complex());

  // Shared node: both restaurants' parking arcs point at n7.
  EXPECT_EQ(db.Child(g.bangkok, "parking"), g.parking);
  EXPECT_EQ(db.Child(g.janta, "parking"), g.parking);

  // Cycle: parking --nearby-eats--> bangkok --parking--> parking.
  EXPECT_EQ(db.Child(g.parking, "nearby-eats"), g.bangkok);
}

TEST(OemDatabaseTest, CreNodeRejectsReusedIds) {
  OemDatabase db;
  ASSERT_TRUE(db.CreNode(10, Value::Int(1)).ok());
  Status s = db.CreNode(10, Value::Int(2));
  EXPECT_EQ(s.code(), StatusCode::kInvalidChange);
  EXPECT_EQ(db.CreNode(0, Value::Int(1)).code(),
            StatusCode::kInvalidArgument);
}

TEST(OemDatabaseTest, UpdNodeRequiresNoSubobjects) {
  OemDatabase db;
  NodeId root = db.NewComplex();
  ASSERT_TRUE(db.SetRoot(root).ok());
  NodeId c = db.NewString("x");
  ASSERT_TRUE(db.AddArc(root, "a", c).ok());

  // Root has a subobject: updating its value must fail.
  EXPECT_EQ(db.UpdNode(root, Value::Int(1)).code(),
            StatusCode::kInvalidChange);
  // Removing the arc first makes the update legal (paper Section 2.1).
  ASSERT_TRUE(db.RemArc(root, "a", c).ok());
  EXPECT_TRUE(db.UpdNode(root, Value::Int(1)).ok());
  EXPECT_EQ(db.UpdNode(999, Value::Int(1)).code(), StatusCode::kNotFound);
}

TEST(OemDatabaseTest, AddArcPreconditions) {
  OemDatabase db;
  NodeId root = db.NewComplex();
  ASSERT_TRUE(db.SetRoot(root).ok());
  NodeId atom = db.NewInt(5);
  ASSERT_TRUE(db.AddArc(root, "n", atom).ok());

  EXPECT_EQ(db.AddArc(root, "n", atom).code(), StatusCode::kInvalidChange)
      << "duplicate arc";
  EXPECT_EQ(db.AddArc(atom, "x", root).code(), StatusCode::kInvalidChange)
      << "atomic parent";
  EXPECT_EQ(db.AddArc(root, "x", 999).code(), StatusCode::kNotFound);
  EXPECT_EQ(db.AddArc(999, "x", atom).code(), StatusCode::kNotFound);
}

TEST(OemDatabaseTest, RemArcPreconditions) {
  OemDatabase db;
  NodeId root = db.NewComplex();
  ASSERT_TRUE(db.SetRoot(root).ok());
  NodeId atom = db.NewInt(5);
  ASSERT_TRUE(db.AddArc(root, "n", atom).ok());

  EXPECT_EQ(db.RemArc(root, "other", atom).code(), StatusCode::kNotFound);
  EXPECT_TRUE(db.RemArc(root, "n", atom).ok());
  EXPECT_EQ(db.RemArc(root, "n", atom).code(), StatusCode::kNotFound);
}

TEST(OemDatabaseTest, SameLabelMultipleChildren) {
  OemDatabase db;
  NodeId root = db.NewComplex();
  ASSERT_TRUE(db.SetRoot(root).ok());
  NodeId a = db.NewInt(1);
  NodeId b = db.NewInt(2);
  ASSERT_TRUE(db.AddArc(root, "x", a).ok());
  ASSERT_TRUE(db.AddArc(root, "x", b).ok());
  EXPECT_EQ(db.Children(root, "x"), (std::vector<NodeId>{a, b}));
}

TEST(OemDatabaseTest, CollectGarbageRemovesUnreachable) {
  Guide g = BuildGuide();
  // Cut Janta loose: guide -restaurant-> janta is its only incoming arc.
  ASSERT_TRUE(g.db.RemArc(g.guide, "restaurant", g.janta).ok());
  size_t before = g.db.node_count();
  std::vector<NodeId> removed = g.db.CollectGarbage();
  // Janta, its name/price, and its address subtree die. The shared
  // parking object n7 survives (still reachable via Bangkok), as does
  // everything under it.
  EXPECT_EQ(removed.size(), 6u);
  EXPECT_TRUE(g.db.HasNode(g.parking));
  EXPECT_FALSE(g.db.HasNode(g.janta));
  EXPECT_EQ(g.db.node_count(), before - 6);
  EXPECT_TRUE(g.db.Validate().ok());
}

TEST(OemDatabaseTest, GarbageCollectedIdsAreNeverReused) {
  OemDatabase db;
  NodeId root = db.NewComplex();
  ASSERT_TRUE(db.SetRoot(root).ok());
  NodeId a = db.NewInt(1);
  ASSERT_TRUE(db.AddArc(root, "x", a).ok());
  ASSERT_TRUE(db.RemArc(root, "x", a).ok());
  db.CollectGarbage();
  EXPECT_FALSE(db.HasNode(a));
  EXPECT_EQ(db.CreNode(a, Value::Int(9)).code(), StatusCode::kInvalidChange);
  EXPECT_NE(db.NewInt(7), a);
}

TEST(OemDatabaseTest, CycleKeepsNodesAliveOnlyViaRoot) {
  OemDatabase db;
  NodeId root = db.NewComplex();
  ASSERT_TRUE(db.SetRoot(root).ok());
  // Two nodes in a cycle, attached to root.
  NodeId a = db.NewComplex();
  NodeId b = db.NewComplex();
  ASSERT_TRUE(db.AddArc(a, "next", b).ok());
  ASSERT_TRUE(db.AddArc(b, "next", a).ok());
  ASSERT_TRUE(db.AddArc(root, "cycle", a).ok());
  EXPECT_TRUE(db.CollectGarbage().empty());
  // Detach: the cycle keeps a and b pointing at each other, but
  // reachability from the root is what counts.
  ASSERT_TRUE(db.RemArc(root, "cycle", a).ok());
  EXPECT_EQ(db.CollectGarbage().size(), 2u);
}

TEST(OemDatabaseTest, ValidateDetectsUnreachable) {
  OemDatabase db;
  NodeId root = db.NewComplex();
  ASSERT_TRUE(db.SetRoot(root).ok());
  db.NewInt(1);  // never linked
  EXPECT_FALSE(db.Validate().ok());
}

TEST(OemDatabaseTest, EqualsIsExact) {
  Guide a = BuildGuide();
  Guide b = BuildGuide();
  EXPECT_TRUE(a.db.Equals(b.db));
  ASSERT_TRUE(b.db.UpdNode(b.bangkok_price, Value::Int(11)).ok());
  EXPECT_FALSE(a.db.Equals(b.db));

  // The same arcs in another out-arc order: Bangkok's name arc, removed
  // and added again, moves to the end of its list.
  Guide c = BuildGuide();
  NodeId name = c.db.Child(c.bangkok, "name");
  ASSERT_TRUE(c.db.RemArc(c.bangkok, "name", name).ok());
  ASSERT_TRUE(c.db.AddArc(c.bangkok, "name", name).ok());
  ASSERT_NE(c.db.OutArcs(c.bangkok), a.db.OutArcs(c.bangkok));
  EXPECT_TRUE(a.db.Equals(c.db));
  EXPECT_TRUE(c.db.Equals(a.db));

  // Two name arcs swap parents: every node keeps its value and its
  // out-degree, and the counts of nodes and arcs stay the same.
  Guide d = BuildGuide();
  NodeId bangkok_name = d.db.Child(d.bangkok, "name");
  NodeId janta_name = d.db.Child(d.janta, "name");
  ASSERT_TRUE(d.db.RemArc(d.bangkok, "name", bangkok_name).ok());
  ASSERT_TRUE(d.db.RemArc(d.janta, "name", janta_name).ok());
  ASSERT_TRUE(d.db.AddArc(d.bangkok, "name", janta_name).ok());
  ASSERT_TRUE(d.db.AddArc(d.janta, "name", bangkok_name).ok());
  ASSERT_EQ(d.db.node_count(), a.db.node_count());
  ASSERT_EQ(d.db.arc_count(), a.db.arc_count());
  EXPECT_FALSE(a.db.Equals(d.db));
  EXPECT_FALSE(d.db.Equals(a.db));
}

// A brute-force OemDatabase: values by id, every arc in one list in
// insertion order, and the erased ids.
struct OemModel {
  std::map<NodeId, Value> values;
  std::vector<Arc> arcs;
  std::set<NodeId> erased;
  // Erased ids let go by ForgetErasedIds, which CreNode may use again.
  std::set<NodeId> forgotten;
  NodeId root = kInvalidNode;
  NodeId next_id = 1;

  bool Live(NodeId n) const { return values.contains(n); }
  bool Burned(NodeId n) const { return Live(n) || erased.contains(n); }
  bool HasArc(const Arc& a) const {
    return std::find(arcs.begin(), arcs.end(), a) != arcs.end();
  }
  bool HasIncoming(NodeId n) const {
    return std::any_of(arcs.begin(), arcs.end(),
                       [&](const Arc& a) { return a.child == n; });
  }
  std::vector<OutArc> Out(NodeId p) const {
    std::vector<OutArc> out;
    for (const Arc& a : arcs) {
      if (a.parent == p) out.push_back({a.label, a.child});
    }
    return out;
  }
  std::vector<NodeId> Children(NodeId p, const std::string& l) const {
    std::vector<NodeId> out;
    for (const Arc& a : arcs) {
      if (a.parent == p && a.label == l) out.push_back(a.child);
    }
    return out;
  }
  NodeId NewNode(const Value& v) {
    while (Burned(next_id)) ++next_id;
    values[next_id] = v;
    return next_id++;
  }
  std::vector<NodeId> CollectGarbage() {
    std::set<NodeId> seen;
    std::deque<NodeId> queue;
    if (Live(root)) queue.push_back(root);
    seen.insert(root);
    while (!queue.empty()) {
      NodeId n = queue.front();
      queue.pop_front();
      for (const OutArc& a : Out(n)) {
        if (seen.insert(a.child).second) queue.push_back(a.child);
      }
    }
    std::vector<NodeId> removed;
    for (const auto& [id, v] : values) {
      if (!seen.contains(id)) removed.push_back(id);
    }
    for (NodeId id : removed) {
      values.erase(id);
      erased.insert(id);
    }
    std::erase_if(arcs, [&](const Arc& a) { return !seen.contains(a.parent); });
    return removed;
  }
};

const std::vector<std::string> kModelLabels = {"a", "b", "c"};

// OemDatabase's width bound: a node with more out-arcs keeps label buckets
// (ChildBucket non-null). LabelBucketsOnlyAboveTheWidthBound pins it.
constexpr size_t kWideOutDegree = 16;

// Whether `arcs`, out-arcs of `n`, all exist and have strictly ascending
// insertion sequence numbers.
::testing::AssertionResult InSequenceOrder(const OemDatabase& db, NodeId n,
                                           const std::vector<OutArc>& arcs) {
  std::optional<uint64_t> prev;
  for (const OutArc& a : arcs) {
    std::optional<uint64_t> seq = db.ArcSeq({n, a.label, a.child});
    if (!seq) {
      return ::testing::AssertionFailure()
             << "no sequence number for " << Arc{n, a.label, a.child}.ToString();
    }
    if (prev && *seq <= *prev) {
      return ::testing::AssertionFailure()
             << Arc{n, a.label, a.child}.ToString() << " has sequence " << *seq
             << " after " << *prev;
    }
    prev = seq;
  }
  return ::testing::AssertionSuccess();
}

// Compares every accessor of `db` with the model.
void ExpectMatchesModel(const OemDatabase& db, const OemModel& m) {
  ASSERT_EQ(db.root(), m.root);
  ASSERT_EQ(db.node_count(), m.values.size());
  ASSERT_EQ(db.arc_count(), m.arcs.size());
  ASSERT_EQ(db.PeekNextId(), m.next_id);
  std::vector<NodeId> ids;
  for (const auto& [id, v] : m.values) ids.push_back(id);
  ASSERT_EQ(db.NodeIds(), ids);
  std::vector<Arc> by_parent = m.arcs;
  std::stable_sort(by_parent.begin(), by_parent.end(),
                   [](const Arc& x, const Arc& y) {
                     return x.parent < y.parent;
                   });
  ASSERT_EQ(db.AllArcs(), by_parent);

  std::vector<NodeId> probes = ids;
  probes.push_back(kInvalidNode);
  probes.push_back(m.next_id + 1);
  if (!m.erased.empty()) probes.push_back(*m.erased.rbegin());
  for (NodeId n : probes) {
    ASSERT_EQ(db.HasNode(n), m.Live(n)) << n;
    const Value* v = db.GetValue(n);
    ASSERT_EQ(v != nullptr, m.Live(n)) << n;
    if (v != nullptr) {
      ASSERT_EQ(*v, m.values.at(n)) << n;
    }
    ASSERT_EQ(db.OutArcs(n), m.Out(n)) << n;
    ASSERT_TRUE(InSequenceOrder(db, n, db.OutArcs(n))) << n;
    ASSERT_EQ(db.InDegree(n),
              std::count_if(m.arcs.begin(), m.arcs.end(),
                            [&](const Arc& a) { return a.child == n; }))
        << n;
    for (const std::string& l : kModelLabels) {
      std::vector<NodeId> children = m.Children(n, l);
      ASSERT_EQ(db.Children(n, l), children) << n << l;
      std::vector<OutArc> bucket_arcs;
      for (NodeId c : db.Children(n, l)) bucket_arcs.push_back({l, c});
      ASSERT_TRUE(InSequenceOrder(db, n, bucket_arcs)) << n << l;
      const std::vector<NodeId>* bucket = db.ChildBucket(n, l);
      bool wide = m.Out(n).size() > kWideOutDegree;
      ASSERT_EQ(bucket != nullptr, wide && !children.empty()) << n << l;
      if (bucket != nullptr) {
        ASSERT_EQ(*bucket, children) << n << l;
      }
      ASSERT_EQ(db.LabelChildCount(n, l), children.size()) << n << l;
      ASSERT_EQ(db.Child(n, l),
                children.empty() ? kInvalidNode : children.front());
      for (NodeId c : probes) {
        ASSERT_EQ(db.HasArc(n, l, c), m.HasArc({n, l, c})) << n << l << c;
        ASSERT_EQ(db.ArcSeq({n, l, c}).has_value(), m.HasArc({n, l, c}));
      }
    }
  }

  for (NodeId n : m.erased) {
    OemDatabase probe = db;
    ASSERT_EQ(probe.CreNode(n, Value::Complex()).code(),
              StatusCode::kInvalidChange)
        << n;
  }

  OemDatabase rebuilt;
  for (const auto& [id, v] : m.values) ASSERT_TRUE(rebuilt.CreNode(id, v).ok());
  for (const Arc& a : m.arcs) {
    ASSERT_TRUE(rebuilt.AddArc(a.parent, a.label, a.child).ok());
  }
  ASSERT_TRUE(rebuilt.SetRoot(m.root).ok());
  ASSERT_TRUE(db.Equals(rebuilt));
  ASSERT_TRUE(rebuilt.Equals(db));
}

// Nodes 2 and 3, the hubs of IndexesMatchBruteForceModel's hub seeds.
constexpr NodeId kHubs[] = {2, 3};

// Applies one random operation to both `db` and `m`, and checks that
// both accept or reject it alike. With `hubs`, three of four addArcs go
// from a hub to a live node, half of the remArcs are skipped, and one of
// two MoveOutArcs starts at a hub, so hubs cross the width bound. With
// `recreate`, one step in eight first forgets the erased ids, and half of
// the creNodes take a forgotten id, so erased nodes come back and their
// node-table slots are reused. Without either flag the draws are the same
// as before they existed.
void RandomStep(std::mt19937* rng, OemDatabase* db, OemModel* m,
                bool hubs = false, bool recreate = false) {
  auto pick = [&](size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(*rng);
  };
  auto any_id = [&] { return static_cast<NodeId>(pick(m->next_id + 3)); };
  auto any_value = [&] {
    switch (pick(4)) {
      case 0:
        return Value::Int(static_cast<int64_t>(pick(5)));
      case 1:
        return Value::String("s" + std::to_string(pick(3)));
      default:
        return Value::Complex();
    }
  };
  if (recreate && pick(8) == 0) {
    db->ForgetErasedIds();
    m->forgotten.insert(m->erased.begin(), m->erased.end());
    m->erased.clear();
  }
  const std::string& label = kModelLabels[pick(kModelLabels.size())];
  switch (pick(11)) {
    case 0: {
      Value v = any_value();
      ASSERT_EQ(db->NewNode(v), m->NewNode(v));
      break;
    }
    case 1: {
      NodeId n = recreate && !m->forgotten.empty() && pick(2) == 0
                     ? *std::next(m->forgotten.begin(),
                                  pick(m->forgotten.size()))
                     : any_id();
      Value v = any_value();
      bool ok = n != kInvalidNode && !m->Burned(n);
      ASSERT_EQ(db->CreNode(n, v).ok(), ok) << n;
      if (ok) {
        m->values[n] = v;
        m->next_id = std::max(m->next_id, n + 1);
        m->forgotten.erase(n);
      }
      break;
    }
    case 2: {
      NodeId n = any_id();
      if (n == m->root) break;  // the root stays complex
      Value v = any_value();
      bool ok = m->Live(n) && m->Out(n).empty();
      ASSERT_EQ(db->UpdNode(n, v).ok(), ok) << n;
      if (ok) m->values[n] = v;
      break;
    }
    case 3:
    case 4:
    case 5: {
      Arc a{any_id(), label, kInvalidNode};
      if (hubs && pick(4) != 0) {
        // A hub gains a live child.
        a.parent = kHubs[pick(2)];
        a.child = std::next(m->values.begin(), pick(m->values.size()))->first;
      } else {
        a.child = any_id();
      }
      bool ok = m->Live(a.parent) && m->values[a.parent].is_complex() &&
                m->Live(a.child) && !m->HasArc(a);
      ASSERT_EQ(db->AddArc(a.parent, a.label, a.child).ok(), ok)
          << a.ToString();
      if (ok) m->arcs.push_back(a);
      break;
    }
    case 6:
    case 7: {
      if (hubs && pick(2) != 0) break;
      Arc a = !m->arcs.empty() && pick(4) != 0
                  ? m->arcs[pick(m->arcs.size())]
                  : Arc{any_id(), label, any_id()};
      bool ok = m->HasArc(a);
      ASSERT_EQ(db->RemArc(a.parent, a.label, a.child).ok(), ok)
          << a.ToString();
      if (ok) std::erase(m->arcs, a);
      break;
    }
    case 8: {
      // The contract: no incident arcs. Out-arcs are checked; in-arcs and
      // the root are the caller's to avoid.
      NodeId n = any_id();
      if (n == m->root || m->HasIncoming(n)) break;
      bool ok = m->Live(n) && m->Out(n).empty();
      ASSERT_EQ(db->EraseNodeForce(n).ok(), ok) << n;
      if (ok) {
        m->values.erase(n);
        m->erased.insert(n);
      }
      break;
    }
    case 9:
      ASSERT_EQ(db->CollectGarbage(), m->CollectGarbage());
      break;
    case 10: {
      NodeId from = hubs && pick(2) != 0 ? kHubs[pick(2)] : any_id();
      NodeId to = any_id();
      bool ok = m->Live(from) && m->Live(to) && from != to &&
                m->values[to].is_complex() && m->Out(to).empty();
      ASSERT_EQ(db->MoveOutArcs(from, to).ok(), ok) << from << "->" << to;
      if (ok) {
        for (Arc& a : m->arcs) {
          if (a.parent == from) a.parent = to;
        }
      }
      break;
    }
  }
}

// The nodes of `m` above the width bound.
std::set<NodeId> WideNodes(const OemModel& m) {
  std::map<NodeId, size_t> degree;
  for (const Arc& a : m.arcs) ++degree[a.parent];
  std::set<NodeId> wide;
  for (const auto& [n, d] : degree) {
    if (d > kWideOutDegree) wide.insert(n);
  }
  return wide;
}

TEST(OemDatabaseTest, IndexesMatchBruteForceModel) {
  // Seeds 1-8 draw uniformly; seeds 9-16 bias arcs towards two hubs, so
  // that nodes become wide and narrow again, and wide nodes are moved
  // and collected; seeds 17-20 erase nodes and create them again under
  // their old ids. The tallies check that all of this happens.
  size_t widened = 0, narrowed = 0, moved = 0, collected = 0, recreated = 0;
  for (uint32_t seed = 1; seed <= 20; ++seed) {
    const bool hubs = seed > 8 && seed <= 16;
    const bool recreate = seed > 16;
    std::mt19937 rng(seed);
    OemDatabase db;
    OemModel m;
    m.root = m.NewNode(Value::Complex());
    ASSERT_EQ(db.NewComplex(), m.root);
    ASSERT_TRUE(db.SetRoot(m.root).ok());
    if (hubs) {
      // The hubs and ten more complex nodes under the root; the hubs start
      // a few arcs below the width bound.
      for (int i = 0; i < 12; ++i) {
        NodeId n = m.NewNode(Value::Complex());
        ASSERT_EQ(db.NewComplex(), n);
        m.arcs.push_back({m.root, "a", n});
      }
      for (size_t i = 0; i < 2 * kWideOutDegree - 6; ++i) {
        m.arcs.push_back({kHubs[i % 2], kModelLabels[i % 3], 4 + i % 10});
      }
      for (const Arc& a : m.arcs) {
        ASSERT_TRUE(db.AddArc(a.parent, a.label, a.child).ok());
      }
    }
    for (int step = 0; step < 300; ++step) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      // Mutate a copy; the original must not notice.
      OemDatabase copy = db;
      OemModel next = m;
      RandomStep(&rng, &copy, &next, hubs, recreate);
      ASSERT_NO_FATAL_FAILURE(ExpectMatchesModel(db, m));
      recreated += next.forgotten.size() < m.forgotten.size();
      std::set<NodeId> was_wide = WideNodes(m);
      std::set<NodeId> is_wide = WideNodes(next);
      for (NodeId n : is_wide) widened += !was_wide.contains(n);
      for (NodeId n : was_wide) {
        if (!next.Live(n)) {
          ++collected;
        } else if (next.Out(n).empty()) {
          ++moved;  // only MoveOutArcs empties a wide node in one step
        } else if (!is_wide.contains(n)) {
          ++narrowed;
        }
      }
      db = std::move(copy);
      m = std::move(next);
      ASSERT_NO_FATAL_FAILURE(ExpectMatchesModel(db, m));
    }
  }
  EXPECT_GT(widened, 0u);
  EXPECT_GT(narrowed, 0u);
  EXPECT_GT(moved, 0u);
  EXPECT_GT(collected, 0u);
  EXPECT_GT(recreated, 0u);
}

TEST(OemDatabaseTest, LabelBucketsOnlyAboveTheWidthBound) {
  OemDatabase db;
  NodeId root = db.NewComplex();
  ASSERT_TRUE(db.SetRoot(root).ok());
  NodeId hub = db.NewComplex();
  NodeId spare = db.NewComplex();
  ASSERT_TRUE(db.AddArc(root, "hub", hub).ok());
  ASSERT_TRUE(db.AddArc(root, "spare", spare).ok());
  std::vector<NodeId> kids;
  // The arc lookups of a node whose out-arcs are the x-arcs to `kids`:
  // HasArc, a duplicate AddArc and a RemArc of a missing arc.
  auto expect_arc_lookups = [&](NodeId parent) {
    SCOPED_TRACE(std::to_string(kids.size()) + " arcs");
    for (NodeId k : kids) {
      EXPECT_TRUE(db.HasArc(parent, "x", k)) << k;
      EXPECT_FALSE(db.HasArc(parent, "y", k)) << k;
      EXPECT_EQ(db.AddArc(parent, "x", k).code(), StatusCode::kInvalidChange)
          << k;
    }
    EXPECT_FALSE(db.HasArc(parent, "x", spare));
    EXPECT_EQ(db.RemArc(parent, "x", spare).code(), StatusCode::kNotFound);
    EXPECT_EQ(db.RemArc(parent, "y", kids.front()).code(),
              StatusCode::kNotFound);
    EXPECT_EQ(db.OutArcs(parent).size(), kids.size());
  };
  for (size_t i = 0; i <= kWideOutDegree; ++i) {
    EXPECT_EQ(db.ChildBucket(hub, "x"), nullptr) << i << " arcs";
    kids.push_back(db.NewInt(static_cast<int64_t>(i)));
    ASSERT_TRUE(db.AddArc(hub, "x", kids.back()).ok());
    EXPECT_EQ(db.Children(hub, "x"), kids);
    EXPECT_EQ(db.LabelChildCount(hub, "x"), kids.size());
    if (kids.size() >= kWideOutDegree) expect_arc_lookups(hub);
  }
  const std::vector<NodeId>* bucket = db.ChildBucket(hub, "x");
  ASSERT_NE(bucket, nullptr) << kWideOutDegree + 1 << " arcs";
  EXPECT_EQ(*bucket, kids);
  EXPECT_EQ(db.ChildBucket(hub, "y"), nullptr) << "no y-children";

  // The buckets move with the arcs, which keep their ArcSeq, and go with
  // a collected node.
  std::vector<std::optional<uint64_t>> seqs;
  for (NodeId k : kids) seqs.push_back(db.ArcSeq({hub, "x", k}));
  ASSERT_TRUE(db.MoveOutArcs(hub, spare).ok());
  EXPECT_EQ(db.ChildBucket(hub, "x"), nullptr);
  ASSERT_NE(db.ChildBucket(spare, "x"), nullptr);
  EXPECT_EQ(*db.ChildBucket(spare, "x"), kids);
  for (size_t i = 0; i < kids.size(); ++i) {
    ASSERT_TRUE(seqs[i].has_value());
    EXPECT_EQ(db.ArcSeq({spare, "x", kids[i]}), seqs[i]) << kids[i];
    EXPECT_FALSE(db.HasArc(hub, "x", kids[i])) << kids[i];
  }
  expect_arc_lookups(spare);
  OemDatabase collected = db;
  ASSERT_TRUE(collected.RemArc(root, "spare", spare).ok());
  EXPECT_EQ(collected.CollectGarbage().size(), kids.size() + 1);
  EXPECT_EQ(collected.ChildBucket(spare, "x"), nullptr);

  ASSERT_TRUE(db.RemArc(spare, "x", kids.front()).ok());
  kids.erase(kids.begin());
  EXPECT_EQ(db.ChildBucket(spare, "x"), nullptr) << kWideOutDegree << " arcs";
  EXPECT_EQ(db.Children(spare, "x"), kids);
  EXPECT_EQ(db.Child(spare, "x"), kids.front());
  expect_arc_lookups(spare);
}

// A root with a complex `parent` and `n` atomic nodes; the arcs to
// install on `parent`: a self-loop, then n - 1 arcs over the first half
// of the nodes, so that some are reached under two labels.
struct OutArcsCase {
  OemDatabase db;
  NodeId parent = kInvalidNode;
  std::vector<OutArc> arcs;
};
OutArcsCase MakeOutArcsCase(size_t n) {
  OutArcsCase c;
  NodeId root = c.db.NewComplex();
  EXPECT_TRUE(c.db.SetRoot(root).ok());
  c.parent = c.db.NewComplex();
  EXPECT_TRUE(c.db.AddArc(root, "p", c.parent).ok());
  std::vector<NodeId> kids;
  for (size_t i = 0; i < n; ++i) {
    kids.push_back(c.db.NewInt(static_cast<int64_t>(i)));
  }
  if (n > 0) c.arcs.push_back({"self", c.parent});
  const size_t half = n / 2 + 1;
  for (size_t i = 0; i + 1 < n; ++i) {
    c.arcs.push_back({kModelLabels[i / half], kids[i % half]});
  }
  return c;
}

TEST(OemDatabaseTest, SetOutArcsMatchesAddArcs) {
  for (size_t n : std::vector<size_t>{0, 1, 5, kWideOutDegree,
                                      kWideOutDegree + 1, 40}) {
    SCOPED_TRACE(std::to_string(n) + " arcs");
    OutArcsCase added = MakeOutArcsCase(n);
    OutArcsCase set = MakeOutArcsCase(n);
    for (const OutArc& a : added.arcs) {
      ASSERT_TRUE(added.db.AddArc(added.parent, a.label, a.child).ok())
          << a.label << a.child;
    }
    ASSERT_TRUE(set.db.SetOutArcs(set.parent, set.arcs).ok());
    EXPECT_TRUE(set.db.Equals(added.db));
    EXPECT_EQ(set.db.Validate().message(), added.db.Validate().message());
    EXPECT_EQ(set.db.OutArcs(set.parent), added.db.OutArcs(added.parent));
    for (NodeId id : added.db.NodeIds()) {
      EXPECT_EQ(set.db.InDegree(id), added.db.InDegree(id)) << id;
      for (const char* l : {"self", "a", "b", "c"}) {
        const std::vector<NodeId>* want = added.db.ChildBucket(id, l);
        const std::vector<NodeId>* got = set.db.ChildBucket(id, l);
        ASSERT_EQ(got != nullptr, want != nullptr) << id << l;
        if (got != nullptr) {
          EXPECT_EQ(*got, *want) << id << l;
        }
      }
    }
    for (const OutArc& a : added.arcs) {
      EXPECT_EQ(set.db.ArcSeq({set.parent, a.label, a.child}),
                added.db.ArcSeq({added.parent, a.label, a.child}))
          << a.label << a.child;
    }
    // The next arc takes the same ArcSeq in both.
    ASSERT_TRUE(added.db.AddArc(added.db.root(), "next", added.parent).ok());
    ASSERT_TRUE(set.db.AddArc(set.db.root(), "next", set.parent).ok());
    EXPECT_EQ(set.db.ArcSeq({set.db.root(), "next", set.parent}),
              added.db.ArcSeq({added.db.root(), "next", added.parent}));
  }
}

TEST(OemDatabaseTest, SetOutArcsIsAllOrNothing) {
  // Each failure leaves the database equal to its copy, every in-degree
  // as it was, and the ArcSeq counter where it was.
  auto expect_refused = [](const OemDatabase& before, NodeId parent,
                           const std::vector<OutArc>& arcs, StatusCode code) {
    OemDatabase db = before;
    EXPECT_EQ(db.SetOutArcs(parent, arcs).code(), code);
    EXPECT_TRUE(db.Equals(before));
    for (NodeId id : before.NodeIds()) {
      EXPECT_EQ(db.InDegree(id), before.InDegree(id)) << id;
    }
    EXPECT_EQ(db.OutArcs(parent), before.OutArcs(parent));
    OemDatabase fresh = before;
    ASSERT_TRUE(db.AddArc(db.root(), "next", db.root()).ok());
    ASSERT_TRUE(fresh.AddArc(fresh.root(), "next", fresh.root()).ok());
    EXPECT_EQ(db.ArcSeq({db.root(), "next", db.root()}),
              fresh.ArcSeq({fresh.root(), "next", fresh.root()}));
  };
  for (size_t n : {5, 40}) {
    SCOPED_TRACE(std::to_string(n) + " arcs");
    OutArcsCase c = MakeOutArcsCase(n);
    const NodeId atomic = c.arcs.back().child;
    expect_refused(c.db, 9999, c.arcs, StatusCode::kNotFound);
    expect_refused(c.db, atomic, c.arcs, StatusCode::kInvalidChange);
    OemDatabase has_arcs = c.db;
    NodeId leaf = has_arcs.NewComplex();
    ASSERT_TRUE(has_arcs.AddArc(c.parent, "leaf", leaf).ok());
    expect_refused(has_arcs, c.parent, c.arcs, StatusCode::kInvalidArgument);
    // The failing arc comes last, after every other child was counted.
    std::vector<OutArc> missing = c.arcs;
    missing.push_back({"a", 9999});
    expect_refused(c.db, c.parent, missing, StatusCode::kNotFound);
    std::vector<OutArc> repeated = c.arcs;
    repeated.push_back(c.arcs[1]);
    expect_refused(c.db, c.parent, repeated, StatusCode::kInvalidChange);
  }
}

TEST(OemDatabaseTest, ValidateReportsTheFirstFaultClass) {
  // A root with children x (complex) and y (an atomic 1).
  OemDatabase good;
  NodeId root = good.NewComplex();
  ASSERT_TRUE(good.SetRoot(root).ok());
  NodeId x = good.NewComplex();
  NodeId y = good.NewInt(1);
  ASSERT_TRUE(good.AddArc(root, "x", x).ok());
  ASSERT_TRUE(good.AddArc(root, "y", y).ok());
  ASSERT_TRUE(good.Validate().ok());
  auto message = [](const OemDatabase& db) { return db.Validate().message(); };

  EXPECT_EQ(message(OemDatabase()), "Validate: database has no root");
  OemDatabase root_gone;
  ASSERT_TRUE(root_gone.SetRoot(root_gone.NewComplex()).ok());
  ASSERT_TRUE(root_gone.EraseNodeForce(root_gone.root()).ok());
  EXPECT_EQ(message(root_gone), "Validate: database has no root");

  OemDatabase atomic_root;
  ASSERT_TRUE(atomic_root.SetRoot(atomic_root.NewComplex()).ok());
  ASSERT_TRUE(atomic_root.UpdNode(atomic_root.root(), Value::Int(3)).ok());
  EXPECT_EQ(message(atomic_root), "Validate: root is not complex");

  OemDatabase atomic_parent = good;
  ASSERT_TRUE(atomic_parent.AddArcForce(y, "z", x).ok());
  EXPECT_EQ(message(atomic_parent),
            "Validate: atomic node " + std::to_string(y) + " has out-arcs");

  // EraseNodeForce leaves the arc from x dangling.
  OemDatabase dangling = good;
  NodeId gone = dangling.NewInt(2);
  ASSERT_TRUE(dangling.AddArc(x, "gone", gone).ok());
  ASSERT_TRUE(dangling.EraseNodeForce(gone).ok());
  EXPECT_EQ(message(dangling),
            "Validate: arc to unknown node " + std::to_string(gone));

  OemDatabase unreachable = good;
  NodeId island = unreachable.NewComplex();
  ASSERT_TRUE(unreachable.AddArc(island, "in", unreachable.NewInt(4)).ok());
  EXPECT_EQ(message(unreachable),
            "Validate: 2 node(s) unreachable from the root");

  // Precedence: the root first, then atomic nodes with out-arcs and
  // dangling arcs anywhere (reachable or not), then reachability.
  OemDatabase both = unreachable;
  NodeId stray = both.NewInt(5);
  ASSERT_TRUE(both.AddArcForce(stray, "s", island).ok());
  EXPECT_EQ(message(both),
            "Validate: atomic node " + std::to_string(stray) + " has out-arcs");
  OemDatabase hidden_dangling = unreachable;
  NodeId lost = hidden_dangling.NewInt(6);
  ASSERT_TRUE(hidden_dangling.AddArc(island, "lost", lost).ok());
  ASSERT_TRUE(hidden_dangling.EraseNodeForce(lost).ok());
  EXPECT_EQ(message(hidden_dangling),
            "Validate: arc to unknown node " + std::to_string(lost));
  OemDatabase no_root = both;
  ASSERT_TRUE(no_root.RemArc(root, "x", x).ok());
  ASSERT_TRUE(no_root.RemArc(root, "y", y).ok());
  ASSERT_TRUE(no_root.EraseNodeForce(root).ok());
  EXPECT_EQ(message(no_root), "Validate: database has no root");
  for (const OemDatabase* db :
       {&root_gone, &atomic_root, &atomic_parent, &dangling, &unreachable}) {
    EXPECT_EQ(db->Validate().code(), StatusCode::kInvalidArgument);
  }
}

// ------------------------------------------------------------- ChangeOps

TEST(ChangeSetTest, ConflictDetection) {
  EXPECT_TRUE(CheckChangeSetConflicts({}).ok());
  EXPECT_TRUE(CheckChangeSetConflicts(
                  {ChangeOp::CreNode(1, Value::Int(1)),
                   ChangeOp::UpdNode(2, Value::Int(2))})
                  .ok());
  EXPECT_FALSE(CheckChangeSetConflicts({ChangeOp::CreNode(1, Value::Int(1)),
                                        ChangeOp::CreNode(1, Value::Int(2))})
                   .ok());
  EXPECT_FALSE(CheckChangeSetConflicts({ChangeOp::UpdNode(1, Value::Int(1)),
                                        ChangeOp::UpdNode(1, Value::Int(2))})
                   .ok());
  EXPECT_FALSE(CheckChangeSetConflicts({ChangeOp::CreNode(1, Value::Int(1)),
                                        ChangeOp::UpdNode(1, Value::Int(2))})
                   .ok());
  EXPECT_FALSE(CheckChangeSetConflicts({ChangeOp::AddArc(1, "x", 2),
                                        ChangeOp::RemArc(1, "x", 2)})
                   .ok())
      << "Definition 2.2 condition (3)";
  EXPECT_FALSE(CheckChangeSetConflicts({ChangeOp::AddArc(1, "x", 2),
                                        ChangeOp::AddArc(1, "x", 2)})
                   .ok());
}

TEST(ChangeSetTest, CanonicalOrderPhases) {
  ChangeSet ops = {ChangeOp::AddArc(1, "a", 2),
                   ChangeOp::UpdNode(3, Value::Int(1)),
                   ChangeOp::RemArc(4, "b", 5),
                   ChangeOp::CreNode(6, Value::Complex())};
  ChangeSet ordered = CanonicalOrder(ops);
  EXPECT_EQ(ordered[0].kind, ChangeOp::Kind::kCreNode);
  EXPECT_EQ(ordered[1].kind, ChangeOp::Kind::kRemArc);
  EXPECT_EQ(ordered[2].kind, ChangeOp::Kind::kUpdNode);
  EXPECT_EQ(ordered[3].kind, ChangeOp::Kind::kAddArc);
}

TEST(ChangeSetTest, ApplyIsOrderIndependent) {
  // The Example 2.3 U1 set in several presentation orders must produce
  // identical databases (Definition 2.2 condition (2)).
  ChangeSet u1 = {ChangeOp::UpdNode(1, Value::Int(20)),
                  ChangeOp::CreNode(2, Value::Complex()),
                  ChangeOp::CreNode(3, Value::String("Hakata")),
                  ChangeOp::AddArc(4, "restaurant", 2),
                  ChangeOp::AddArc(2, "name", 3)};
  OemDatabase expected;
  {
    Guide g = BuildGuide();
    ASSERT_TRUE(ApplyChangeSet(&g.db, u1).ok());
    expected = g.db;
  }
  ChangeSet shuffled = {u1[4], u1[2], u1[0], u1[3], u1[1]};
  Guide g = BuildGuide();
  ASSERT_TRUE(ApplyChangeSet(&g.db, shuffled).ok());
  EXPECT_TRUE(g.db.Equals(expected));
}

TEST(ChangeSetTest, ComplexToAtomicRequiresArcRemoval) {
  // remArc + updNode in one set: only the rem-before-upd order is valid;
  // ApplyChangeSet must find it.
  OemDatabase db;
  NodeId root = db.NewComplex();
  ASSERT_TRUE(db.SetRoot(root).ok());
  NodeId box = db.NewComplex();
  NodeId leaf = db.NewInt(1);
  ASSERT_TRUE(db.AddArc(root, "box", box).ok());
  ASSERT_TRUE(db.AddArc(box, "leaf", leaf).ok());

  ChangeSet u = {ChangeOp::UpdNode(box, Value::String("now atomic")),
                 ChangeOp::RemArc(box, "leaf", leaf)};
  ASSERT_TRUE(ApplyChangeSet(&db, u).ok());
  EXPECT_EQ(db.GetValue(box)->AsString(), "now atomic");
  EXPECT_FALSE(db.HasNode(leaf)) << "leaf became unreachable";
}

TEST(ChangeSetTest, AtomicToComplexAllowsArcAdds) {
  OemDatabase db;
  NodeId root = db.NewComplex();
  ASSERT_TRUE(db.SetRoot(root).ok());
  NodeId atom = db.NewInt(5);
  ASSERT_TRUE(db.AddArc(root, "x", atom).ok());

  ChangeSet u = {ChangeOp::AddArc(atom, "child", root),
                 ChangeOp::UpdNode(atom, Value::Complex())};
  ASSERT_TRUE(ApplyChangeSet(&db, u).ok());
  EXPECT_TRUE(db.GetValue(atom)->is_complex());
  EXPECT_TRUE(db.HasArc(atom, "child", root));
}

// The ids below `db`'s id floor (and one past it) that creNode refuses.
std::vector<NodeId> BurnedIds(const OemDatabase& db) {
  OemDatabase probe = db;
  std::vector<NodeId> burned;
  for (NodeId n = 1; n <= db.PeekNextId(); ++n) {
    if (!probe.CreNode(n, Value::Int(0)).ok()) burned.push_back(n);
  }
  return burned;
}

// Everything an apply keeps besides the graph itself: arc order in the
// out-arc lists and label buckets, ArcSeq, in-degrees, the id floor and
// the burned ids.
void ExpectSameState(const OemDatabase& db, const OemDatabase& want,
                     const std::string& where) {
  EXPECT_TRUE(db.Equals(want)) << where;
  std::vector<Arc> arcs = want.AllArcs();
  EXPECT_EQ(db.AllArcs(), arcs) << where;
  std::map<NodeId, size_t> in;
  for (const Arc& a : arcs) {
    EXPECT_EQ(db.ArcSeq(a), want.ArcSeq(a)) << where << " " << a.ToString();
    EXPECT_EQ(db.Children(a.parent, a.label), want.Children(a.parent, a.label))
        << where << " " << a.ToString();
    EXPECT_EQ(db.LabelChildCount(a.parent, a.label),
              want.LabelChildCount(a.parent, a.label))
        << where << " " << a.ToString();
    const std::vector<NodeId>* bucket = db.ChildBucket(a.parent, a.label);
    const std::vector<NodeId>* want_bucket =
        want.ChildBucket(a.parent, a.label);
    EXPECT_EQ(bucket != nullptr, want_bucket != nullptr)
        << where << " " << a.ToString();
    if (bucket != nullptr && want_bucket != nullptr) {
      EXPECT_EQ(*bucket, *want_bucket) << where << " " << a.ToString();
    }
    ++in[a.child];
  }
  for (NodeId n : want.NodeIds()) {
    EXPECT_EQ(db.InDegree(n), in[n]) << where << " node " << n;
  }
  EXPECT_EQ(db.PeekNextId(), want.PeekNextId()) << where;
  EXPECT_EQ(BurnedIds(db), BurnedIds(want)) << where;
}

// What applying `ops` op by op in canonical order reports: the first
// failing op's Status.
Status FirstFailure(OemDatabase db, const ChangeSet& ops) {
  for (const ChangeOp& op : CanonicalOrder(ops)) {
    DOEM_RETURN_IF_ERROR(op.ApplyTo(&db));
  }
  return Status::OK();
}

TEST(ChangeSetTest, FailureLeavesDatabaseUnchanged) {
  // Guide ids: root 8, Bangkok 9 and its price 1, Janta 6 with out-arcs
  // name, price 14, address 15, parking 7; the guide 4 lists 9 then 6.
  const Guide guide = BuildGuide();
  const NodeId floor = guide.db.PeekNextId();
  // Each failing set is its good part plus one failing op that runs last
  // in canonical order.
  struct Case {
    ChangeSet good;
    ChangeOp bad;
  };
  const std::vector<Case> cases = {
      {{ChangeOp::UpdNode(1, Value::Int(20))}, ChangeOp::AddArc(999, "x", 1)},
      // A creNode above the id floor, with arcs under a new label.
      {{ChangeOp::CreNode(floor + 50, Value::Complex()),
        ChangeOp::AddArc(4, "new", floor + 50),
        ChangeOp::AddArc(floor + 50, "back", 4)},
       ChangeOp::AddArc(floor + 50, "x", 999)},
      // remArcs in the middle of a parent's out-arcs (emptying two of its
      // label buckets) and at the head of the guide's `restaurant` bucket.
      {{ChangeOp::RemArc(6, "price", 14), ChangeOp::RemArc(6, "address", 15),
        ChangeOp::RemArc(4, "restaurant", 9)},
       ChangeOp::UpdNode(6, Value::Int(0))},
      // Every kind at once; the value of 1 is restored too.
      {{ChangeOp::CreNode(floor + 9, Value::Int(3)),
        ChangeOp::RemArc(6, "parking", 7), ChangeOp::UpdNode(1, Value::Int(7)),
        ChangeOp::AddArc(6, "twin", floor + 9)},
       ChangeOp::AddArc(6, "name", 13)},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    const std::string where = "case " + std::to_string(i);
    ChangeSet bad = cases[i].good;
    bad.push_back(cases[i].bad);
    OemDatabase db = guide.db;
    Status s = ApplyChangeSet(&db, bad);
    EXPECT_FALSE(s.ok()) << where;
    Status want = FirstFailure(guide.db, bad);
    EXPECT_EQ(s.code(), want.code()) << where;
    EXPECT_EQ(s.message(), want.message()) << where;
    ExpectSameState(db, guide.db, where + " after the failure");
    EXPECT_EQ(WriteOemText(db), WriteOemText(guide.db)) << where;

    // The good part applies as it would to an untouched copy; a stale
    // in-degree would collect differently.
    OemDatabase fresh = guide.db;
    std::vector<NodeId> gone_fresh, gone;
    ASSERT_TRUE(ApplyChangeSet(&fresh, cases[i].good, &gone_fresh).ok());
    ASSERT_TRUE(ApplyChangeSet(&db, cases[i].good, &gone).ok()) << where;
    EXPECT_EQ(gone, gone_fresh) << where;
    ExpectSameState(db, fresh, where + " after the good set");
    EXPECT_EQ(WriteOemText(db), WriteOemText(fresh)) << where;
  }
}

TEST(ChangeSetTest, FailureAcrossTheWidthBoundLeavesDatabaseUnchanged) {
  // Under the root: `wide` with kWideOutDegree + 2 out-arcs (so it keeps
  // label buckets, and undoing three remArcs rebuilds them at the second
  // undo and inserts into them at the third), `narrow` with
  // kWideOutDegree - 1, and atoms to point at. Labels cycle x, y, z so
  // that every bucket has arcs before and after any position.
  OemDatabase base;
  NodeId root = base.NewComplex();
  ASSERT_TRUE(base.SetRoot(root).ok());
  NodeId wide = base.NewComplex();
  NodeId narrow = base.NewComplex();
  ASSERT_TRUE(base.AddArc(root, "wide", wide).ok());
  ASSERT_TRUE(base.AddArc(root, "narrow", narrow).ok());
  const std::string labels[] = {"x", "y", "z"};
  std::vector<NodeId> atoms;
  for (size_t i = 0; i < kWideOutDegree + 4; ++i) {
    atoms.push_back(base.NewInt(static_cast<int64_t>(i)));
    ASSERT_TRUE(base.AddArc(root, "atom", atoms.back()).ok());
  }
  for (size_t i = 0; i < kWideOutDegree + 2; ++i) {
    ASSERT_TRUE(base.AddArc(wide, labels[i % 3], atoms[i]).ok());
  }
  for (size_t i = 0; i + 1 < kWideOutDegree; ++i) {
    ASSERT_TRUE(base.AddArc(narrow, labels[i % 3], atoms[i]).ok());
  }
  ASSERT_NE(base.ChildBucket(wide, "x"), nullptr);
  ASSERT_EQ(base.ChildBucket(narrow, "x"), nullptr);

  const ChangeOp bad = ChangeOp::AddArc(999, "x", root);  // runs last
  struct Case {
    std::string name;
    ChangeSet good;
    NodeId node;       // crosses the bound, or crosses it twice
    bool wide_after;  // whether `node` is wide after `good`
  };
  const std::vector<Case> cases = {
      {"remArcs narrow a wide node",
       {ChangeOp::RemArc(wide, "y", atoms[1]),
        ChangeOp::RemArc(wide, "x", atoms[6]),
        ChangeOp::RemArc(wide, "z", atoms[kWideOutDegree - 2])},
       wide,
       false},
      {"addArcs widen a narrow node",
       {ChangeOp::AddArc(narrow, "y", atoms[kWideOutDegree]),
        ChangeOp::AddArc(narrow, "w", atoms[kWideOutDegree + 1]),
        ChangeOp::AddArc(narrow, "x", atoms[kWideOutDegree + 2])},
       narrow,
       true},
      {"a remArc inside a wide node that stays wide",
       {ChangeOp::RemArc(wide, "y", atoms[4])},
       wide,
       true},
      {"remArcs narrow a wide node and addArcs widen it again",
       {ChangeOp::RemArc(wide, "x", atoms[0]),
        ChangeOp::RemArc(wide, "y", atoms[4]),
        ChangeOp::RemArc(wide, "z", atoms[8]),
        ChangeOp::AddArc(wide, "x", atoms[kWideOutDegree + 2]),
        ChangeOp::AddArc(wide, "y", atoms[kWideOutDegree + 3])},
       wide,
       true},
  };
  for (const Case& c : cases) {
    ChangeSet ops = c.good;
    ops.push_back(bad);
    OemDatabase db = base;
    EXPECT_FALSE(ApplyChangeSet(&db, ops).ok()) << c.name;
    ExpectSameState(db, base, c.name + ", after the failure");

    // The good part applies as on a fresh copy.
    OemDatabase fresh = base;
    ASSERT_TRUE(ApplyChangeSet(&fresh, c.good).ok()) << c.name;
    EXPECT_EQ(fresh.ChildBucket(c.node, "x") != nullptr, c.wide_after)
        << c.name;
    ASSERT_TRUE(ApplyChangeSet(&db, c.good).ok()) << c.name;
    ExpectSameState(db, fresh, c.name + ", after the good set");
  }
}

// Applies `ops` to `*db` and checks the outcome against the reference: the
// same ops through the mutators on a copy, then the full CollectGarbage.
void ExpectLocalGcMatchesFullSweep(OemDatabase* db, const ChangeSet& ops,
                                   const std::string& where,
                                   std::vector<NodeId>* deleted_out = nullptr) {
  OemDatabase reference = *db;
  for (const ChangeOp& op : CanonicalOrder(ops)) {
    ASSERT_TRUE(op.ApplyTo(&reference).ok()) << where << " " << op.ToString();
  }
  std::vector<NodeId> want = reference.CollectGarbage();
  std::vector<NodeId> deleted;
  ASSERT_TRUE(ApplyChangeSet(db, ops, &deleted).ok()) << where;
  EXPECT_EQ(deleted, want) << where;
  ExpectSameState(*db, reference, where);
  EXPECT_TRUE(db->Validate().ok()) << where;
  if (deleted_out != nullptr) *deleted_out = std::move(deleted);
}

TEST(ChangeSetTest, LocalGarbageCollectionMatchesTheFullSweep) {
  for (uint32_t seed = 1; seed <= 12; ++seed) {
    testing::DatabaseOptions dopts;
    dopts.seed = seed;
    dopts.node_count = 40;
    OemDatabase db = testing::RandomDatabase(dopts);
    testing::HistoryOptions hopts;
    hopts.seed = seed + 300;
    hopts.steps = 15;
    hopts.ops_per_step = 3 + seed % 6;
    OemHistory history = testing::RandomHistory(db, hopts);
    for (const HistoryStep& step : history.steps()) {
      ASSERT_NO_FATAL_FAILURE(ExpectLocalGcMatchesFullSweep(
          &db, step.changes,
          "seed " + std::to_string(seed) + " @" + step.time.ToString()));
    }
  }
  OemDatabase guide = testing::SyntheticGuide(30);
  OemHistory churn = testing::SyntheticGuideChurn(guide, 20, 6);
  for (const HistoryStep& step : churn.steps()) {
    ASSERT_NO_FATAL_FAILURE(ExpectLocalGcMatchesFullSweep(
        &guide, step.changes, "churn @" + step.time.ToString()));
  }
}

TEST(ChangeSetTest, LocalGarbageCollectionNamedCases) {
  // Guide ids as in FailureLeavesDatabaseUnchanged; 7 (parking) has the
  // parents 9 and 6 and closes the cycle 7 -> nearby-eats -> 9 -> 7.
  const Guide guide = BuildGuide();
  const NodeId root = guide.db.root();
  const NodeId fresh = guide.db.PeekNextId() + 10;
  struct Case {
    std::string name;
    ChangeSet setup;  // applied first, through the same check
    ChangeSet ops;
    std::vector<NodeId> deleted;
  };
  const std::vector<Case> cases = {
      {"a cycle cut off from the root",
       {},
       {ChangeOp::RemArc(4, "restaurant", 9), ChangeOp::RemArc(6, "parking", 7)},
       {1, 7, 9, 10, 11, 12, 18, 19}},
      {"a node with two parents that loses one",
       {},
       {ChangeOp::RemArc(6, "parking", 7)},
       {}},
      {"a stillborn chain of created nodes",
       {},
       {ChangeOp::CreNode(fresh, Value::Complex()),
        ChangeOp::CreNode(fresh + 1, Value::Complex()),
        ChangeOp::CreNode(fresh + 2, Value::Int(1)),
        ChangeOp::AddArc(fresh, "a", fresh + 1),
        ChangeOp::AddArc(fresh + 1, "b", fresh + 2),
        ChangeOp::AddArc(fresh + 1, "into", 4)},
       {fresh, fresh + 1, fresh + 2}},
      {"a subtree detached and re-attached elsewhere",
       {},
       {ChangeOp::RemArc(6, "address", 15), ChangeOp::AddArc(9, "moved", 15)},
       {}},
      {"a removed arc into a node that reaches the root",
       {ChangeOp::AddArc(7, "home", root)},
       {ChangeOp::RemArc(9, "parking", 7)},
       {}},
      {"both parents of a node that reaches the root",
       {ChangeOp::AddArc(7, "home", root)},
       {ChangeOp::RemArc(9, "parking", 7), ChangeOp::RemArc(6, "parking", 7)},
       {7, 18, 19}},
  };
  for (const Case& c : cases) {
    OemDatabase db = guide.db;
    ASSERT_NO_FATAL_FAILURE(
        ExpectLocalGcMatchesFullSweep(&db, c.setup, c.name + " (setup)"));
    std::vector<NodeId> deleted;
    ASSERT_NO_FATAL_FAILURE(
        ExpectLocalGcMatchesFullSweep(&db, c.ops, c.name, &deleted));
    EXPECT_EQ(deleted, c.deleted) << c.name;
  }
}

TEST(ChangeSetTest, CreateWithoutLinkIsDeletedAtBoundary) {
  // A created node left unreachable at the end of the set is considered
  // deleted (Section 2.2).
  Guide g = BuildGuide();
  std::vector<NodeId> deleted;
  ChangeSet u = {ChangeOp::CreNode(100, Value::Int(1))};
  ASSERT_TRUE(ApplyChangeSet(&g.db, u, &deleted).ok());
  EXPECT_EQ(deleted, std::vector<NodeId>{100});
  EXPECT_FALSE(g.db.HasNode(100));
}

TEST(ChangeSetTest, EqualsIsOrderInsensitiveMultiset) {
  ChangeSet a = {ChangeOp::CreNode(1, Value::Int(1)),
                 ChangeOp::AddArc(2, "x", 1)};
  ChangeSet b = {ChangeOp::AddArc(2, "x", 1),
                 ChangeOp::CreNode(1, Value::Int(1))};
  EXPECT_TRUE(ChangeSetEquals(a, b));
  b.push_back(ChangeOp::CreNode(9, Value::Int(1)));
  EXPECT_FALSE(ChangeSetEquals(a, b));
}

// --------------------------------------------------------------- History

TEST(HistoryTest, GuideHistoryProducesFigure3) {
  Guide g = BuildGuide();
  OemHistory h = GuideHistory();
  ASSERT_TRUE(h.ValidateFor(g.db).ok());
  ASSERT_TRUE(h.ApplyTo(&g.db).ok());
  const OemDatabase& db = g.db;

  // Price changed 10 -> 20.
  EXPECT_EQ(db.GetValue(1)->AsInt(), 20);
  // Hakata added with name and comment.
  std::vector<NodeId> restaurants = db.Children(4, "restaurant");
  ASSERT_EQ(restaurants.size(), 3u);
  EXPECT_EQ(db.GetValue(db.Child(2, "name"))->AsString(), "Hakata");
  EXPECT_EQ(db.GetValue(db.Child(2, "comment"))->AsString(), "need info");
  // Janta's parking arc removed; n7 still reachable through Bangkok.
  EXPECT_FALSE(db.HasArc(6, "parking", 7));
  EXPECT_TRUE(db.HasNode(7));
  EXPECT_TRUE(db.Validate().ok());
}

TEST(HistoryTest, TimestampsMustIncrease) {
  OemHistory h;
  ASSERT_TRUE(h.Append(Timestamp(5), {}).ok());
  EXPECT_FALSE(h.Append(Timestamp(5), {}).ok());
  EXPECT_FALSE(h.Append(Timestamp(4), {}).ok());
  EXPECT_TRUE(h.Append(Timestamp(6), {}).ok());
}

TEST(HistoryTest, OperatingOnDeletedNodeIsInvalid) {
  Guide g = BuildGuide();
  OemHistory h;
  // Delete Janta at t1, then try to touch it at t2.
  ASSERT_TRUE(
      h.Append(Timestamp(100), {ChangeOp::RemArc(4, "restaurant", 6)}).ok());
  ASSERT_TRUE(
      h.Append(Timestamp(200),
               {ChangeOp::UpdNode(6, Value::String("zombie"))})
          .ok());
  EXPECT_FALSE(h.ValidateFor(g.db).ok());
}

TEST(HistoryTest, HistoryEquality) {
  EXPECT_TRUE(GuideHistory().Equals(GuideHistory()));
  OemHistory h = GuideHistory();
  OemHistory h2;
  ASSERT_TRUE(h2.Append(Timestamp(1), {}).ok());
  EXPECT_FALSE(h.Equals(h2));
}

// ------------------------------------------------------------ Isomorphism

TEST(IsomorphismTest, GuideIsIsomorphicToRelabeledGuide) {
  Guide a = BuildGuide();
  // Rebuild the same structure with different ids by round-tripping
  // through a fresh database with fresh ids.
  OemDatabase b;
  b.ReserveIdsBelow(1000);
  auto map = CopyReachable(a.db, {a.db.root()}, &b, /*preserve_ids=*/false);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(b.SetRoot(map->at(a.db.root())).ok());

  std::unordered_map<NodeId, NodeId> iso;
  EXPECT_TRUE(FindIsomorphism(a.db, b, &iso));
  EXPECT_EQ(iso.at(a.db.root()), b.root());
  EXPECT_EQ(iso.size(), a.db.node_count());
}

TEST(IsomorphismTest, DetectsValueDifference) {
  Guide a = BuildGuide();
  Guide b = BuildGuide();
  ASSERT_TRUE(b.db.UpdNode(b.bangkok_price, Value::Int(11)).ok());
  EXPECT_FALSE(Isomorphic(a.db, b.db));
}

TEST(IsomorphismTest, DetectsStructureDifference) {
  Guide a = BuildGuide();
  Guide b = BuildGuide();
  ASSERT_TRUE(b.db.RemArc(b.parking, "nearby-eats", b.bangkok).ok());
  EXPECT_FALSE(Isomorphic(a.db, b.db));
  // Same counts, different wiring.
  ASSERT_TRUE(b.db.AddArc(b.parking, "nearby-eats", b.janta).ok());
  EXPECT_FALSE(Isomorphic(a.db, b.db));
}

TEST(IsomorphismTest, SharingVsCopies) {
  // a: two arcs to ONE shared child; b: two arcs to TWO equal children.
  OemDatabase a;
  NodeId ra = a.NewComplex();
  ASSERT_TRUE(a.SetRoot(ra).ok());
  NodeId shared = a.NewInt(7);
  ASSERT_TRUE(a.AddArc(ra, "x", shared).ok());
  ASSERT_TRUE(a.AddArc(ra, "y", shared).ok());

  OemDatabase b;
  NodeId rb = b.NewComplex();
  ASSERT_TRUE(b.SetRoot(rb).ok());
  ASSERT_TRUE(b.AddArc(rb, "x", b.NewInt(7)).ok());
  ASSERT_TRUE(b.AddArc(rb, "y", b.NewInt(7)).ok());

  EXPECT_FALSE(Isomorphic(a, b)) << "node counts differ";
}

// --------------------------------------------------------------- Subgraph

TEST(SubgraphTest, CopyPreservesSharingAndCycles) {
  Guide g = BuildGuide();
  OemDatabase dst;
  dst.ReserveIdsBelow(g.db.PeekNextId());
  NodeId answer = dst.NewComplex();
  ASSERT_TRUE(dst.SetRoot(answer).ok());

  auto map =
      CopyReachable(g.db, {g.bangkok, g.janta}, &dst, /*preserve_ids=*/true);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(dst.AddArc(answer, "restaurant", map->at(g.bangkok)).ok());
  ASSERT_TRUE(dst.AddArc(answer, "restaurant", map->at(g.janta)).ok());

  // Ids preserved; shared parking node copied once; cycle intact.
  EXPECT_EQ(map->at(g.bangkok), g.bangkok);
  EXPECT_EQ(dst.Child(g.bangkok, "parking"), g.parking);
  EXPECT_EQ(dst.Child(g.janta, "parking"), g.parking);
  EXPECT_EQ(dst.Child(g.parking, "nearby-eats"), g.bangkok);
  EXPECT_TRUE(dst.Validate().ok());
  // The guide root itself was not copied.
  EXPECT_FALSE(dst.HasNode(g.guide));
}

TEST(SubgraphTest, PreserveIdsCollisionFails) {
  Guide g = BuildGuide();
  OemDatabase dst;
  NodeId clash = dst.NewComplex();  // id 1 == g.bangkok_price
  ASSERT_EQ(clash, g.bangkok_price);
  auto map =
      CopyReachable(g.db, {g.bangkok}, &dst, /*preserve_ids=*/true);
  EXPECT_FALSE(map.ok());
}

TEST(SubgraphTest, MissingRootFails) {
  Guide g = BuildGuide();
  OemDatabase dst;
  EXPECT_FALSE(CopyReachable(g.db, {9999}, &dst, false).ok());
}

}  // namespace
}  // namespace doem
