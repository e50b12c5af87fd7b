#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "doem/doem.h"
#include "encoding/doem_text.h"
#include "encoding/encode.h"
#include "encoding/encode_incremental.h"
#include "oem/graph_compare.h"
#include "oem/oem_text.h"
#include "store/file.h"
#include "store/store.h"
#include "testing/generators.h"
#include "testing/guide.h"

namespace doem {
namespace {

using testing::BuildGuide;
using testing::Guide;
using testing::GuideDoem;
using testing::GuideHistory;
using testing::GuideT1;
using testing::GuideT2;
using testing::GuideT3;

// ------------------------------------------------- Figure 4 (Example 3.1)

TEST(DoemTest, Figure4Annotations) {
  DoemDatabase d = GuideDoem();

  // upd annotation on the price node n1, with old value 10.
  const AnnotationList& price = d.NodeAnnotations(1);
  ASSERT_EQ(price.size(), 1u);
  EXPECT_EQ(price[0].kind, Annotation::Kind::kUpd);
  EXPECT_EQ(price[0].time, GuideT1());
  EXPECT_EQ(price[0].old_value, Value::Int(10));
  EXPECT_EQ(d.CurrentValue(1), Value::Int(20));

  // cre annotations on Hakata's nodes.
  ASSERT_TRUE(d.CreTime(2).has_value());
  EXPECT_EQ(*d.CreTime(2), GuideT1());
  EXPECT_EQ(*d.CreTime(3), GuideT1());
  EXPECT_EQ(*d.CreTime(5), GuideT2());

  // add annotations on the new arcs.
  auto restaurant_adds = d.AddAnnotated(4, "restaurant");
  ASSERT_EQ(restaurant_adds.size(), 1u);
  EXPECT_EQ(restaurant_adds[0], std::make_pair(GuideT1(), NodeId{2}));
  ASSERT_EQ(d.AddAnnotated(2, "name").size(), 1u);
  ASSERT_EQ(d.AddAnnotated(2, "comment").size(), 1u);
  EXPECT_EQ(d.AddAnnotated(2, "comment")[0].first, GuideT2());

  // The removed parking arc is NOT removed from the graph; it carries a
  // rem annotation (Example 3.1's key point).
  EXPECT_TRUE(d.graph().HasArc(6, "parking", 7));
  EXPECT_FALSE(d.ArcCurrentlyLive(6, "parking", 7));
  const AnnotationList& rem = d.ArcAnnotations(6, "parking", 7);
  ASSERT_EQ(rem.size(), 1u);
  EXPECT_EQ(rem[0].kind, Annotation::Kind::kRem);
  EXPECT_EQ(rem[0].time, GuideT3());
}

TEST(DoemTest, UnchangedPartsHaveNoAnnotations) {
  DoemDatabase d = GuideDoem();
  Guide g = BuildGuide();
  EXPECT_TRUE(d.NodeAnnotations(g.guide).empty());
  EXPECT_TRUE(d.NodeAnnotations(g.janta).empty());
  EXPECT_TRUE(d.ArcAnnotations(g.guide, "restaurant", g.janta).empty());
}

// --------------------------------------------------- Snapshots (Sec 3.2)

TEST(DoemTest, OriginalSnapshotIsFigure2) {
  DoemDatabase d = GuideDoem();
  OemDatabase original = d.OriginalSnapshot();
  EXPECT_TRUE(original.Equals(BuildGuide().db));
}

TEST(DoemTest, CurrentSnapshotIsFigure3) {
  DoemDatabase d = GuideDoem();
  OemDatabase expected = BuildGuide().db;
  ASSERT_TRUE(GuideHistory().ApplyTo(&expected).ok());
  EXPECT_TRUE(d.CurrentSnapshot().Equals(expected));
}

TEST(DoemTest, SnapshotAtIntermediateTimes) {
  DoemDatabase d = GuideDoem();

  // Just before t1: original state.
  OemDatabase before = d.SnapshotAt(Timestamp(GuideT1().ticks - 1));
  EXPECT_TRUE(before.Equals(BuildGuide().db));

  // At t1 (changes at t are visible at t): price updated, Hakata exists
  // with only a name; the parking arc still present.
  OemDatabase at1 = d.SnapshotAt(GuideT1());
  EXPECT_EQ(at1.GetValue(1)->AsInt(), 20);
  EXPECT_TRUE(at1.HasNode(2));
  EXPECT_TRUE(at1.HasArc(2, "name", 3));
  EXPECT_FALSE(at1.HasNode(5)) << "comment not yet created";
  EXPECT_TRUE(at1.HasArc(6, "parking", 7));
  EXPECT_TRUE(at1.Validate().ok());

  // Between t2 and t3: comment exists; parking arc still present.
  OemDatabase at2 = d.SnapshotAt(Timestamp(GuideT2().ticks + 1));
  EXPECT_TRUE(at2.HasArc(2, "comment", 5));
  EXPECT_TRUE(at2.HasArc(6, "parking", 7));

  // At t3: the parking arc is gone.
  OemDatabase at3 = d.SnapshotAt(GuideT3());
  EXPECT_FALSE(at3.HasArc(6, "parking", 7));
  EXPECT_TRUE(at3.HasNode(7)) << "n7 still reachable via Bangkok";
  EXPECT_TRUE(at3.Validate().ok());
}

TEST(DoemTest, ValueAtFollowsUpdateChain) {
  // Three consecutive updates on one node.
  OemDatabase base;
  NodeId root = base.NewComplex();
  ASSERT_TRUE(base.SetRoot(root).ok());
  NodeId n = base.NewInt(1);
  ASSERT_TRUE(base.AddArc(root, "x", n).ok());

  auto d = DoemDatabase::FromSnapshot(base);
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(
      d->ApplyChangeSet(Timestamp(10), {ChangeOp::UpdNode(n, Value::Int(2))})
          .ok());
  ASSERT_TRUE(
      d->ApplyChangeSet(Timestamp(20), {ChangeOp::UpdNode(n, Value::Int(3))})
          .ok());
  ASSERT_TRUE(d->ApplyChangeSet(Timestamp(30),
                                {ChangeOp::UpdNode(n, Value::String("x"))})
                  .ok());

  EXPECT_EQ(d->ValueAt(n, Timestamp(9)), Value::Int(1));
  EXPECT_EQ(d->ValueAt(n, Timestamp(10)), Value::Int(2));
  EXPECT_EQ(d->ValueAt(n, Timestamp(19)), Value::Int(2));
  EXPECT_EQ(d->ValueAt(n, Timestamp(20)), Value::Int(3));
  EXPECT_EQ(d->ValueAt(n, Timestamp(29)), Value::Int(3));
  EXPECT_EQ(d->ValueAt(n, Timestamp(31)), Value::String("x"));

  auto recs = d->UpdRecords(n);
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0], (UpdRecord{Timestamp(10), Value::Int(1), Value::Int(2)}));
  EXPECT_EQ(recs[1], (UpdRecord{Timestamp(20), Value::Int(2), Value::Int(3)}));
  EXPECT_EQ(recs[2],
            (UpdRecord{Timestamp(30), Value::Int(3), Value::String("x")}));
}

TEST(DoemTest, ArcReAdditionHistory) {
  // Remove an original arc, then re-add it: annotations [rem, add].
  Guide g = BuildGuide();
  auto d = DoemDatabase::FromSnapshot(g.db);
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(d->ApplyChangeSet(Timestamp(100),
                                {ChangeOp::RemArc(6, "parking", 7)})
                  .ok());
  ASSERT_TRUE(d->ApplyChangeSet(Timestamp(200),
                                {ChangeOp::AddArc(6, "parking", 7)})
                  .ok());

  EXPECT_TRUE(d->ArcLiveAt(6, "parking", 7, Timestamp(99)));
  EXPECT_FALSE(d->ArcLiveAt(6, "parking", 7, Timestamp(150)));
  EXPECT_TRUE(d->ArcLiveAt(6, "parking", 7, Timestamp(200)));
  EXPECT_TRUE(d->ArcCurrentlyLive(6, "parking", 7));
  EXPECT_TRUE(d->IsFeasible());
}

// ----------------------------------------------- History extraction (3.2)

TEST(DoemTest, ExtractHistoryRecoversGuideHistory) {
  DoemDatabase d = GuideDoem();
  EXPECT_TRUE(d.ExtractHistory().Equals(GuideHistory()))
      << "extracted:\n"
      << d.ExtractHistory().ToString() << "expected:\n"
      << GuideHistory().ToString();
}

// H(D) by its per-timestamp definition: for each timestamp, node ops by
// ascending id, then arc ops in AllArcs order. The op order within a step
// fixes the ArcSeq order of a rebuilt database, so ExtractHistory must
// print the same as this, not merely equal it step by step as a multiset.
OemHistory ReferenceExtractHistory(const DoemDatabase& d) {
  OemHistory history;
  for (Timestamp t : d.AllTimestamps()) {
    ChangeSet ops;
    for (NodeId n : d.graph().NodeIds()) {
      const AnnotationList& annots = d.NodeAnnotations(n);
      for (size_t i = 0; i < annots.size(); ++i) {
        if (annots[i].time != t) continue;
        Value v_after = d.CurrentValue(n);
        for (size_t j = i + 1; j < annots.size(); ++j) {
          if (annots[j].kind == Annotation::Kind::kUpd) {
            v_after = annots[j].old_value;
            break;
          }
        }
        if (annots[i].kind == Annotation::Kind::kCre) {
          ops.push_back(ChangeOp::CreNode(n, std::move(v_after)));
        } else if (annots[i].kind == Annotation::Kind::kUpd) {
          ops.push_back(ChangeOp::UpdNode(n, std::move(v_after)));
        }
      }
    }
    for (const Arc& arc : d.graph().AllArcs()) {
      for (const Annotation& ann :
           d.ArcAnnotations(arc.parent, arc.label, arc.child)) {
        if (ann.time != t) continue;
        if (ann.kind == Annotation::Kind::kAdd) {
          ops.push_back(ChangeOp::AddArc(arc.parent, arc.label, arc.child));
        } else if (ann.kind == Annotation::Kind::kRem) {
          ops.push_back(ChangeOp::RemArc(arc.parent, arc.label, arc.child));
        }
      }
    }
    EXPECT_TRUE(history.Append(t, std::move(ops)).ok());
  }
  return history;
}

TEST(DoemTest, ExtractHistoryKeepsThePerTimestampOrder) {
  std::vector<std::pair<std::string, DoemDatabase>> cases;
  for (uint32_t seed = 1; seed <= 12; ++seed) {
    testing::DatabaseOptions dopts;
    dopts.seed = seed;
    dopts.node_count = 30;
    OemDatabase base = testing::RandomDatabase(dopts);
    testing::HistoryOptions hopts;
    hopts.seed = seed + 100;
    hopts.steps = 12;
    hopts.ops_per_step = 6;
    OemHistory history = testing::RandomHistory(base, hopts);
    auto d = DoemDatabase::Build(std::move(base), history);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    cases.emplace_back("seed " + std::to_string(seed), std::move(d).value());
  }
  cases.emplace_back("guide", GuideDoem());
  // Bangkok's price updated twice; Janta's parking removed, then re-added.
  Guide g = BuildGuide();
  OemHistory twice(
      {{Timestamp(100),
        {ChangeOp::UpdNode(g.bangkok_price, Value::Int(20)),
         ChangeOp::RemArc(g.janta, "parking", g.parking)}},
       {Timestamp(200), {ChangeOp::UpdNode(g.bangkok_price, Value::Int(30))}},
       {Timestamp(300), {ChangeOp::AddArc(g.janta, "parking", g.parking)}}});
  auto d = DoemDatabase::Build(g.db, twice);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  cases.emplace_back("updated twice, re-added", std::move(d).value());

  for (const auto& [name, db] : cases) {
    EXPECT_EQ(db.ExtractHistory().ToString(),
              ReferenceExtractHistory(db).ToString())
        << name;
  }
}

TEST(DoemTest, FeasibilityOfBuiltDatabases) {
  EXPECT_TRUE(GuideDoem().IsFeasible());
  auto d = DoemDatabase::FromSnapshot(BuildGuide().db);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d->IsFeasible()) << "empty history is feasible";
}

TEST(DoemTest, UniquenessOfEncodedPair) {
  // Section 3.2's key property: O_0(D) and H(D) are unique, i.e. the DOEM
  // database faithfully captures the original snapshot and history.
  DoemDatabase d = GuideDoem();
  auto rebuilt = DoemDatabase::Build(d.OriginalSnapshot(),
                                     d.ExtractHistory());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_TRUE(d.Equals(*rebuilt));
  EXPECT_TRUE(rebuilt->ExtractHistory().Equals(d.ExtractHistory()));
  EXPECT_TRUE(rebuilt->OriginalSnapshot().Equals(d.OriginalSnapshot()));
}

TEST(DoemTest, FinalSnapshotEqualsReplayedHistory) {
  DoemDatabase d = GuideDoem();
  OemDatabase replayed = BuildGuide().db;
  ASSERT_TRUE(GuideHistory().ApplyTo(&replayed).ok());
  EXPECT_TRUE(d.SnapshotAt(GuideT3()).Equals(replayed));
}

// --------------------------------------------------------- Deletion rules

TEST(DoemTest, DeletedNodesStayInGraphButRejectOperations) {
  Guide g = BuildGuide();
  auto dr = DoemDatabase::FromSnapshot(g.db);
  ASSERT_TRUE(dr.ok());
  DoemDatabase d = std::move(dr).value();

  // Deleting Janta by removing its only incoming arc.
  ASSERT_TRUE(d.ApplyChangeSet(Timestamp(100),
                               {ChangeOp::RemArc(4, "restaurant", 6)})
                  .ok());
  EXPECT_TRUE(d.IsDeleted(6));
  EXPECT_TRUE(d.graph().HasNode(6)) << "physically retained";
  EXPECT_FALSE(d.SnapshotAt(Timestamp(100)).HasNode(6));
  EXPECT_TRUE(d.SnapshotAt(Timestamp(99)).HasNode(6));

  // The shared parking object survives via Bangkok.
  EXPECT_FALSE(d.IsDeleted(7));

  // Operating on the deleted object is invalid (Section 2.2).
  EXPECT_FALSE(d.ApplyChangeSet(Timestamp(200),
                                {ChangeOp::UpdNode(6, Value::Int(1))})
                   .ok());
  EXPECT_FALSE(d.ApplyChangeSet(Timestamp(200),
                                {ChangeOp::AddArc(4, "restaurant", 6)})
                   .ok());
  EXPECT_TRUE(d.IsFeasible());
}

TEST(DoemTest, TemporarilyUnreachableWithinChangeSetIsFine) {
  DoemDatabase d = GuideDoem();
  // Create a node and link it in the same set; also re-parent a subtree.
  Status s = d.ApplyChangeSet(
      Timestamp::FromDate(1997, 2, 1),
      {ChangeOp::CreNode(50, Value::Complex()),
       ChangeOp::CreNode(51, Value::String("Thai")),
       ChangeOp::AddArc(4, "restaurant", 50),
       ChangeOp::AddArc(50, "cuisine", 51)});
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_FALSE(d.IsDeleted(50));
  EXPECT_EQ(*d.CreTime(50), Timestamp::FromDate(1997, 2, 1));
}

TEST(DoemTest, StillbornCreatedNodeIsPruned) {
  // A node created and never linked is unreachable at the set boundary;
  // it never existed in any snapshot and is pruned physically, together
  // with any arcs added under it in the same set.
  DoemDatabase d = GuideDoem();
  ASSERT_TRUE(d.ApplyChangeSet(Timestamp::FromDate(1997, 2, 1),
                               {ChangeOp::CreNode(50, Value::Complex()),
                                ChangeOp::CreNode(51, Value::Int(1)),
                                ChangeOp::AddArc(50, "x", 51)})
                  .ok());
  EXPECT_FALSE(d.graph().HasNode(50));
  EXPECT_FALSE(d.graph().HasNode(51));
  EXPECT_TRUE(d.IsFeasible());
  // The ids stay burned: re-creating them later is still an error.
  EXPECT_FALSE(d.ApplyChangeSet(Timestamp::FromDate(1997, 3, 1),
                                {ChangeOp::CreNode(50, Value::Int(2)),
                                 ChangeOp::AddArc(4, "x", 50)})
                   .ok());
}

// ---------------------------------------------------------- Error paths

TEST(DoemTest, RejectsNonIncreasingTimestamps) {
  DoemDatabase d = GuideDoem();
  EXPECT_FALSE(d.ApplyChangeSet(GuideT3(), {}).ok());
  EXPECT_FALSE(d.ApplyChangeSet(GuideT1(), {}).ok());
  EXPECT_TRUE(d.ApplyChangeSet(Timestamp(GuideT3().ticks + 1), {}).ok());
}

TEST(DoemTest, RejectsDoubleAddOfLiveArc) {
  DoemDatabase d = GuideDoem();
  EXPECT_FALSE(d.ApplyChangeSet(Timestamp::FromDate(1997, 2, 1),
                                {ChangeOp::AddArc(4, "restaurant", 6)})
                   .ok());
}

TEST(DoemTest, RejectsRemovalOfDeadArc) {
  DoemDatabase d = GuideDoem();
  // (6, parking, 7) was already removed at t3.
  EXPECT_FALSE(d.ApplyChangeSet(Timestamp::FromDate(1997, 2, 1),
                                {ChangeOp::RemArc(6, "parking", 7)})
                   .ok());
}

TEST(DoemTest, RejectsUpdOfNodeWithLiveChildren) {
  DoemDatabase d = GuideDoem();
  EXPECT_FALSE(d.ApplyChangeSet(Timestamp::FromDate(1997, 2, 1),
                                {ChangeOp::UpdNode(6, Value::Int(1))})
                   .ok());
}

TEST(DoemTest, UpdAllowedOnceLiveChildrenRemoved) {
  // Node 7's arcs are removed over time; once none is live, updNode works
  // even though removed arcs are physically present.
  DoemDatabase d = GuideDoem();
  Guide g = BuildGuide();
  Timestamp t(GuideT3().ticks + 1);
  ChangeSet rems;
  for (const OutArc& a : d.LiveArcs(7)) {
    rems.push_back(ChangeOp::RemArc(7, a.label, a.child));
  }
  rems.push_back(ChangeOp::UpdNode(7, Value::String("just a string now")));
  ASSERT_TRUE(d.ApplyChangeSet(t, rems).ok());
  EXPECT_EQ(d.CurrentValue(7), Value::String("just a string now"));
  EXPECT_FALSE(d.graph().OutArcs(7).empty())
      << "removed arcs stay in the DOEM graph";
  EXPECT_TRUE(d.IsFeasible());
  // Time travel still sees the old complex object.
  OemDatabase old = d.SnapshotAt(GuideT3());
  EXPECT_TRUE(old.GetValue(7)->is_complex());
  EXPECT_FALSE(old.Children(7, "lot").empty());
}

TEST(DoemTest, TransactionalOnFailure) {
  DoemDatabase d = GuideDoem();
  DoemDatabase before = d;
  Status s = d.ApplyChangeSet(
      Timestamp::FromDate(1997, 2, 1),
      {ChangeOp::CreNode(60, Value::Int(1)),
       ChangeOp::AddArc(4, "x", 60),
       ChangeOp::AddArc(999, "y", 60)});  // bad parent
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(d.Equals(before));
}

TEST(DoemTest, FromSnapshotRequiresWellFormedBase) {
  OemDatabase no_root;
  no_root.NewComplex();
  EXPECT_FALSE(DoemDatabase::FromSnapshot(no_root).ok());
}

TEST(DoemTest, EqualsDistinguishesAnnotations) {
  DoemDatabase a = GuideDoem();
  // Same final graph, different history: build Figure 3 directly with a
  // one-step history.
  OemHistory squashed;
  ChangeSet all;
  OemHistory original = GuideHistory();
  for (const HistoryStep& step : original.steps()) {
    for (const ChangeOp& op : step.changes) all.push_back(op);
  }
  ASSERT_TRUE(squashed.Append(GuideT1(), all).ok());
  auto b = DoemDatabase::Build(BuildGuide().db, squashed);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(a.CurrentSnapshot().Equals(b->CurrentSnapshot()));
  EXPECT_FALSE(a.Equals(*b));
}

TEST(DoemTest, ErrorKindsFollowTheCurrentSnapshot) {
  // An op on a deleted object, or a remArc of an arc that is not live,
  // names something the current snapshot does not hold: kNotFound.
  DoemDatabase d = GuideDoem();
  DoemDatabase before = d;
  Timestamp t = Timestamp::FromDate(1997, 2, 1);

  // (6, parking, 7) was removed at t3; n6 is still live.
  Status rem = d.ApplyChangeSet(t, {ChangeOp::RemArc(6, "parking", 7)});
  EXPECT_EQ(rem.code(), StatusCode::kNotFound) << rem.ToString();
  EXPECT_TRUE(d.Equals(before));

  ASSERT_TRUE(
      d.ApplyChangeSet(t, {ChangeOp::RemArc(4, "restaurant", 6)}).ok());
  ASSERT_TRUE(d.IsDeleted(6));
  before = d;
  t = Timestamp::FromDate(1997, 3, 1);
  Status upd = d.ApplyChangeSet(t, {ChangeOp::UpdNode(6, Value::Int(1))});
  EXPECT_EQ(upd.code(), StatusCode::kNotFound) << upd.ToString();
  EXPECT_TRUE(d.Equals(before));

  // The other kinds are the OEM module's too.
  EXPECT_EQ(d.ApplyChangeSet(t, {ChangeOp::AddArc(4, "restaurant", 2)})
                .code(),
            StatusCode::kInvalidChange);
  EXPECT_EQ(d.ApplyChangeSet(t, {ChangeOp::UpdNode(2, Value::Int(1))}).code(),
            StatusCode::kInvalidChange);
  EXPECT_EQ(d.ApplyChangeSet(t, {ChangeOp::CreNode(6, Value::Int(1))}).code(),
            StatusCode::kInvalidChange);
  EXPECT_TRUE(d.Equals(before));
}

// ------------------------------------------- The kept current snapshot

// Nodes of d.graph() reachable from the root over currently-live arcs:
// the breadth-first search the database used to run on every commit,
// kept here as the reference for IsDeleted.
std::unordered_set<NodeId> LiveReachable(const DoemDatabase& d) {
  std::unordered_set<NodeId> seen{d.root()};
  std::deque<NodeId> queue{d.root()};
  while (!queue.empty()) {
    NodeId n = queue.front();
    queue.pop_front();
    for (const OutArc& a : d.LiveArcs(n)) {
      if (seen.insert(a.child).second) queue.push_back(a.child);
    }
  }
  return seen;
}

// The kept snapshot prints as the one rebuilt from annotations (order
// included), and IsDeleted is exactly "unreachable over live arcs".
void ExpectCurrentMatchesReference(const DoemDatabase& d,
                                   const std::string& where) {
  EXPECT_EQ(WriteOemText(d.CurrentSnapshot()),
            WriteOemText(d.SnapshotAt(Timestamp::PositiveInfinity())))
      << where;
  std::unordered_set<NodeId> live = LiveReachable(d);
  for (NodeId n : d.graph().NodeIds()) {
    EXPECT_EQ(d.IsDeleted(n), !live.contains(n)) << where << ": node " << n;
  }
}

// `d` after EncodeDoem -> DecodeDoem, decoded from `patched` (an
// encoding of `d` patched set by set), and after a checkpoint -> reopen.
std::vector<DoemDatabase> RoundTrips(const DoemDatabase& d,
                                     const IncrementalEncoder& patched) {
  std::vector<DoemDatabase> out;
  auto encoded = EncodeDoem(d);
  EXPECT_TRUE(encoded.ok()) << encoded.status().ToString();
  const OemDatabase& fresh = *encoded;
  for (const OemDatabase* enc : {&fresh, &patched.encoding()}) {
    auto decoded = DecodeDoem(*enc);
    EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
    out.push_back(std::move(decoded).value());
  }

  store::MemoryFile file;
  {
    auto s = store::Store::Open(&file, store::StoreOptions{});
    EXPECT_TRUE(s.ok());
    EXPECT_TRUE((*s)->Start(d).ok());
  }
  auto reopened = store::Store::Open(&file, store::StoreOptions{});
  EXPECT_TRUE(reopened.ok() && (*reopened)->has_state());
  out.push_back((*reopened)->TakeRecoveredDb());
  return out;
}

TEST(DoemCurrentTest, MatchesTheReachabilityReference) {
  for (uint32_t seed = 1; seed <= 6; ++seed) {
    testing::DatabaseOptions dopts;
    dopts.seed = seed;
    dopts.node_count = 30;
    OemDatabase base = testing::RandomDatabase(dopts);
    testing::HistoryOptions hopts;
    hopts.seed = seed + 100;
    hopts.steps = 12;
    hopts.ops_per_step = 6;
    OemHistory history = testing::RandomHistory(base, hopts);
    auto d = DoemDatabase::FromSnapshot(base);
    ASSERT_TRUE(d.ok());
    auto patched = IncrementalEncoder::Create(*d);
    ASSERT_TRUE(patched.ok());
    for (const HistoryStep& step : history.steps()) {
      ASSERT_TRUE(d->ApplyChangeSet(step.time, step.changes).ok());
      ASSERT_TRUE(patched->ApplyDelta(*d, step.time, step.changes).ok());
      std::string where =
          "seed " + std::to_string(seed) + " @" + step.time.ToString();
      ExpectCurrentMatchesReference(*d, where);
      for (const DoemDatabase& copy : RoundTrips(*d, *patched)) {
        EXPECT_TRUE(copy.Equals(*d)) << where;
        EXPECT_EQ(WriteOemText(copy.CurrentSnapshot()),
                  WriteOemText(d->CurrentSnapshot()))
            << where;
        ExpectCurrentMatchesReference(copy, where + " (round trip)");
      }
    }
  }
}

TEST(DoemCurrentTest, ReAddedArcMovesToTheEndOfItsParent) {
  // Remove Janta's parking arc, give Janta a new arc, then re-add parking.
  // The current snapshot appended parking after x; the superset graph must
  // list it there too, or a decoded copy would print `parking, x`.
  // An encoding patched set by set must list the arc's history object
  // there as well.
  auto d = DoemDatabase::FromSnapshot(BuildGuide().db);
  ASSERT_TRUE(d.ok());
  auto patched = IncrementalEncoder::Create(*d);
  ASSERT_TRUE(patched.ok());
  const std::vector<std::pair<Timestamp, ChangeSet>> sets = {
      {Timestamp(100), {ChangeOp::RemArc(6, "parking", 7)}},
      {Timestamp(200),
       {ChangeOp::CreNode(900, Value::Int(1)), ChangeOp::AddArc(6, "x", 900)}},
      {Timestamp(300), {ChangeOp::AddArc(6, "parking", 7)}}};
  for (const auto& [t, ops] : sets) {
    ASSERT_TRUE(d->ApplyChangeSet(t, ops).ok());
    ASSERT_TRUE(patched->ApplyDelta(*d, t, ops).ok());
  }

  const std::vector<OutArc>& live = d->CurrentSnapshot().OutArcs(6);
  ASSERT_GE(live.size(), 2u);
  EXPECT_EQ(live[live.size() - 2].label, "x");
  EXPECT_EQ(live.back().label, "parking");
  EXPECT_EQ(d->graph().OutArcs(6).back().label, "parking");
  EXPECT_EQ(d->ArcAnnotations(6, "parking", 7).size(), 2u)
      << "the move keeps the arc's annotations";

  std::string text = WriteOemText(d->CurrentSnapshot());
  EXPECT_EQ(WriteOemText(d->SnapshotAt(Timestamp::PositiveInfinity())), text);
  for (const DoemDatabase& copy : RoundTrips(*d, *patched)) {
    EXPECT_EQ(WriteOemText(copy.CurrentSnapshot()), text);
  }
}

// Change sets drawn from a churn history and from random histories, each
// with its DOEM pre-state.
struct SetsWithPreStates {
  std::vector<DoemDatabase> pre;
  std::vector<HistoryStep> steps;
};

void Collect(const OemDatabase& base, const OemHistory& h,
             SetsWithPreStates* out) {
  auto d = DoemDatabase::FromSnapshot(base);
  ASSERT_TRUE(d.ok());
  for (const HistoryStep& step : h.steps()) {
    out->pre.push_back(*d);
    out->steps.push_back(step);
    ASSERT_TRUE(d->ApplyChangeSet(step.time, step.changes).ok());
  }
}

// Ops that make `ops` invalid against `d`'s current snapshot, touching
// nothing `ops` touches: a remArc of a non-live arc, an updNode of a node
// with live children, a creNode of a burned id, and an op on a deleted
// node (when `d` has one).
std::vector<ChangeOp> FailingOps(const DoemDatabase& d, const ChangeSet& ops) {
  std::unordered_set<NodeId> touched;
  for (const ChangeOp& op : ops) {
    touched.insert(op.node);
    touched.insert(op.arc.parent);
    touched.insert(op.arc.child);
  }
  std::vector<ChangeOp> out;
  const OemDatabase& current = d.CurrentSnapshot();
  NodeId deleted = kInvalidNode;
  NodeId has_children = kInvalidNode;
  for (NodeId n : d.graph().NodeIds()) {
    if (d.IsDeleted(n) && deleted == kInvalidNode) deleted = n;
    if (!touched.contains(n) && current.HasNode(n) &&
        !current.OutArcs(n).empty() && has_children == kInvalidNode) {
      has_children = n;
    }
  }
  // Removed arcs are kept in the graph; a made-up one does as well.
  Arc dead{d.root(), "no-such-arc", d.root()};
  for (const Arc& a : d.graph().AllArcs()) {
    if (!d.ArcCurrentlyLive(a.parent, a.label, a.child) &&
        !touched.contains(a.parent)) {
      dead = a;
      break;
    }
  }
  out.push_back(ChangeOp::RemArc(dead.parent, dead.label, dead.child));
  if (has_children != kInvalidNode) {
    out.push_back(ChangeOp::UpdNode(has_children, Value::Int(0)));
  }
  out.push_back(ChangeOp::CreNode(
      deleted != kInvalidNode ? deleted : d.root(), Value::Int(0)));
  if (deleted != kInvalidNode) {
    out.push_back(ChangeOp::AddArc(d.root(), "to-deleted", deleted));
  }
  return out;
}

// The ids up to one past `db`'s id floor that creNode refuses.
std::vector<NodeId> BurnedIds(const OemDatabase& db) {
  OemDatabase probe = db;
  std::vector<NodeId> burned;
  for (NodeId n = 1; n <= db.PeekNextId(); ++n) {
    if (!probe.CreNode(n, Value::Int(0)).ok()) burned.push_back(n);
  }
  return burned;
}

// `db` lists the same arcs as `want` in the same order (out-arc lists and
// label buckets) with the same ArcSeq, and has the same in-degrees, id
// floor and burned ids.
void ExpectSameBookkeeping(const OemDatabase& db, const OemDatabase& want,
                           const std::string& where) {
  std::vector<Arc> arcs = want.AllArcs();
  EXPECT_EQ(db.AllArcs(), arcs) << where;
  for (const Arc& a : arcs) {
    EXPECT_EQ(db.ArcSeq(a), want.ArcSeq(a)) << where << " " << a.ToString();
    EXPECT_EQ(db.Children(a.parent, a.label), want.Children(a.parent, a.label))
        << where << " " << a.ToString();
  }
  for (NodeId n : want.NodeIds()) {
    EXPECT_EQ(db.InDegree(n), want.InDegree(n)) << where << " node " << n;
  }
  EXPECT_EQ(db.PeekNextId(), want.PeekNextId()) << where;
  EXPECT_EQ(BurnedIds(db), BurnedIds(want)) << where;
}

// The two-snapshot step as a rebuild: a new database at a copy of the
// current snapshot with its erased ids forgotten, then the set. The
// reference for DoemDatabase::RebaseAndApply; `*d` changes only on
// success.
Status ReferenceRebase(DoemDatabase* d, Timestamp t, const ChangeSet& ops) {
  OemDatabase base = d->CurrentSnapshot();
  base.ForgetErasedIds();
  auto rebased = DoemDatabase::FromSnapshot(std::move(base));
  if (!rebased.ok()) return rebased.status();
  DOEM_RETURN_IF_ERROR(rebased->ApplyChangeSet(t, ops));
  *d = std::move(rebased).value();
  return Status::OK();
}

// Applies `ops` to a copy of `pre` (by RebaseAndApply if `rebase`) and
// expects it to fail and leave the copy exactly as `pre`; then applies
// `good` to the copy and expects the same outcome as on an untouched copy
// of `pre` (by ReferenceRebase if `rebase`).
void ExpectRollback(const DoemDatabase& pre, Timestamp t,
                    const ChangeSet& ops, const ChangeSet& good,
                    const std::string& where, bool rebase = false) {
  auto apply = [&](DoemDatabase* db, const ChangeSet& set) {
    return rebase ? db->RebaseAndApply(t, set) : db->ApplyChangeSet(t, set);
  };
  DoemDatabase d = pre;
  EXPECT_FALSE(apply(&d, ops).ok()) << where;
  EXPECT_TRUE(d.Equals(pre)) << where;
  EXPECT_EQ(d.ToString(), pre.ToString()) << where;
  EXPECT_EQ(WriteOemText(d.CurrentSnapshot()),
            WriteOemText(pre.CurrentSnapshot()))
      << where;
  ExpectSameBookkeeping(d.CurrentSnapshot(), pre.CurrentSnapshot(), where);

  DoemDatabase fresh = pre;
  ASSERT_TRUE((rebase ? ReferenceRebase(&fresh, t, good)
                      : fresh.ApplyChangeSet(t, good))
                  .ok())
      << where;
  ASSERT_TRUE(apply(&d, good).ok()) << where;
  EXPECT_EQ(d.ToString(), fresh.ToString()) << where;
  EXPECT_TRUE(d.Equals(fresh)) << where;
  EXPECT_EQ(WriteOemText(d.CurrentSnapshot()),
            WriteOemText(fresh.CurrentSnapshot()))
      << where;
  ExpectSameBookkeeping(d.CurrentSnapshot(), fresh.CurrentSnapshot(),
                        where + " (good set after the failure)");
}

TEST(DoemCurrentTest, FailedChangeSetLeavesDatabaseUnchanged) {
  SetsWithPreStates sets;
  OemDatabase guide = testing::SyntheticGuide(20);
  Collect(guide, testing::SyntheticGuideChurn(guide, 4, 3), &sets);
  for (uint32_t seed = 1; seed <= 3; ++seed) {
    testing::DatabaseOptions dopts;
    dopts.seed = seed;
    dopts.node_count = 25;
    OemDatabase base = testing::RandomDatabase(dopts);
    testing::HistoryOptions hopts;
    hopts.seed = seed + 200;
    hopts.steps = 6;
    hopts.ops_per_step = 4;
    Collect(base, testing::RandomHistory(base, hopts), &sets);
  }

  size_t injected = 0;
  size_t on_deleted = 0;
  size_t rebases_refused = 0;
  size_t readmitted = 0;
  for (size_t i = 0; i < sets.steps.size(); ++i) {
    const DoemDatabase& pre = sets.pre[i];
    const HistoryStep& step = sets.steps[i];
    // A creNode above the id floor, which the failure must lower again.
    const ChangeOp above_floor = ChangeOp::CreNode(
        pre.CurrentSnapshot().PeekNextId() + 1000, Value::Int(1));
    // The good set of a two-snapshot step also brings a deleted object's
    // id back, which only that step allows.
    ChangeSet readmit = step.changes;
    for (NodeId n : pre.graph().NodeIds()) {
      if (!pre.IsDeleted(n)) continue;
      readmit.push_back(ChangeOp::CreNode(n, Value::Int(2)));
      readmit.push_back(ChangeOp::AddArc(pre.root(), "back", n));
      ++readmitted;
      break;
    }
    for (const ChangeOp& bad : FailingOps(pre, step.changes)) {
      if (bad.kind == ChangeOp::Kind::kAddArc) ++on_deleted;
      for (size_t at = 0; at <= step.changes.size(); ++at) {
        ChangeSet ops = step.changes;
        ops.insert(ops.begin() + at, bad);
        for (bool plus_cre : {false, true}) {
          if (plus_cre) ops.push_back(above_floor);
          const std::string where = bad.ToString() + " in " +
                                    ChangeSetToString(ops) +
                                    (plus_cre ? " + creNode" : "");
          ASSERT_NO_FATAL_FAILURE(
              ExpectRollback(pre, step.time, ops, step.changes, where));
          ++injected;
          // A creNode of a deleted object's id is no fault in this step.
          DoemDatabase probe = pre;
          if (ReferenceRebase(&probe, step.time, ops).ok()) continue;
          ASSERT_NO_FATAL_FAILURE(ExpectRollback(
              pre, step.time, ops, readmit, where + " (rebase)", true));
          ++rebases_refused;
        }
      }
    }
  }
  EXPECT_GT(on_deleted, 0u) << "no set ran against a deleted node";
  EXPECT_GT(injected, 200u);
  EXPECT_GT(rebases_refused, 200u);
  EXPECT_GT(readmitted, 0u);

  // remArcs in the middle of the guide's wide `restaurant` bucket, then a
  // failing updNode of the guide, which still has subobjects.
  const DoemDatabase& pre = sets.pre.front();
  const OemDatabase& current = pre.CurrentSnapshot();
  NodeId g = current.Child(current.root(), "guide");
  std::vector<NodeId> restaurants = current.Children(g, "restaurant");
  ASSERT_GE(restaurants.size(), 10u);
  ChangeSet good = {
      ChangeOp::RemArc(g, "restaurant", restaurants[restaurants.size() / 2]),
      ChangeOp::RemArc(g, "restaurant", restaurants[3]),
      ChangeOp::CreNode(current.PeekNextId() + 7, Value::Int(1)),
      ChangeOp::AddArc(g, "note", current.PeekNextId() + 7)};
  ChangeSet ops = good;
  ops.push_back(ChangeOp::UpdNode(g, Value::Int(0)));
  ExpectRollback(pre, sets.steps.front().time, ops, good, "wide parent");
  ExpectRollback(pre, sets.steps.front().time, ops, good,
                 "wide parent (rebase)", true);
}

// ------------------------------------------- The two-snapshot step

// After the same set, `d` (stepped by RebaseAndApply) and `ref` (by
// ReferenceRebase) must compare, print, encode and check alike.
void ExpectSameDatabase(const DoemDatabase& d, const DoemDatabase& ref,
                        const std::string& where) {
  EXPECT_TRUE(d.Equals(ref)) << where;
  EXPECT_EQ(d.ToString(), ref.ToString()) << where;
  EXPECT_EQ(WriteDoemText(d), WriteDoemText(ref)) << where;
  EXPECT_TRUE(d.IsFeasible()) << where;
  EXPECT_TRUE(ref.IsFeasible()) << where;
  ExpectSameBookkeeping(d.CurrentSnapshot(), ref.CurrentSnapshot(), where);
}

// Steps both databases with (t, ops): both accept the set or both refuse
// it, with the same error; a refused set leaves `d` as it was.
void ExpectSameStep(DoemDatabase* d, DoemDatabase* ref, Timestamp t,
                    const ChangeSet& ops, const std::string& where) {
  const std::string before = d->ToString();
  Status got = d->RebaseAndApply(t, ops);
  Status want = ReferenceRebase(ref, t, ops);
  ASSERT_EQ(got.ToString(), want.ToString()) << where;
  if (!got.ok()) EXPECT_EQ(d->ToString(), before) << where;
  ExpectSameDatabase(*d, *ref, where);
}

TEST(DoemRebaseTest, MatchesTheCopyingReference) {
  for (uint32_t seed = 1; seed <= 12; ++seed) {
    testing::DatabaseOptions dopts;
    dopts.seed = seed;
    dopts.node_count = 30;
    OemDatabase base = testing::RandomDatabase(dopts);
    testing::HistoryOptions hopts;
    hopts.seed = seed + 300;
    hopts.steps = 10;
    hopts.ops_per_step = 6;
    OemHistory history = testing::RandomHistory(base, hopts);
    auto d = DoemDatabase::FromSnapshot(base);
    ASSERT_TRUE(d.ok());
    DoemDatabase ref = *d;
    for (size_t i = 0; i < history.steps().size(); ++i) {
      const HistoryStep& step = history.steps()[i];
      const std::string where =
          "seed " + std::to_string(seed) + " @" + step.time.ToString();
      // The first steps build a longer history, which the first
      // two-snapshot step drops whole.
      if (i < 3) {
        ASSERT_TRUE(d->ApplyChangeSet(step.time, step.changes).ok()) << where;
        ASSERT_TRUE(ref.ApplyChangeSet(step.time, step.changes).ok())
            << where;
        continue;
      }
      ChangeSet bad = step.changes;
      bad.push_back(ChangeOp::RemArc(d->root(), "no-such-arc", d->root()));
      ASSERT_NO_FATAL_FAILURE(
          ExpectSameStep(&*d, &ref, step.time, bad, where + " (refused)"));
      ASSERT_NO_FATAL_FAILURE(
          ExpectSameStep(&*d, &ref, step.time, step.changes, where));
    }
  }
}

TEST(DoemRebaseTest, ChurnCycleMatchesTheCopyingReference) {
  OemDatabase guide = testing::SyntheticGuide(20);
  const OemHistory churn = testing::SyntheticGuideChurn(guide, 8, 3);
  auto d = DoemDatabase::FromSnapshot(std::move(guide));
  ASSERT_TRUE(d.ok());
  DoemDatabase ref = *d;
  for (int64_t lap = 0; lap < 3; ++lap) {
    for (const HistoryStep& step : churn.steps()) {
      const Timestamp t(step.time.ticks + lap * 8);
      ASSERT_NO_FATAL_FAILURE(ExpectSameStep(&*d, &ref, t, step.changes,
                                             "@" + t.ToString()));
    }
  }
}

TEST(DoemRebaseTest, DeletedIdsComeBackAsTheReferenceHasIt) {
  Guide g = BuildGuide();
  const NodeId janta_name = g.db.Child(g.janta, "name");
  auto d = DoemDatabase::FromSnapshot(g.db);
  ASSERT_TRUE(d.ok());
  DoemDatabase ref = *d;
  const std::vector<std::pair<Timestamp, ChangeSet>> sets = {
      // Janta is deleted, and keeps its arc to the live parking object;
      // node 100 is stillborn.
      {Timestamp(100),
       {ChangeOp::RemArc(g.guide, "restaurant", g.janta),
        ChangeOp::CreNode(100, Value::Int(1))}},
      // Refused: Janta's address went with Janta.
      {Timestamp(200),
       {ChangeOp::CreNode(g.janta, Value::Complex()),
        ChangeOp::AddArc(g.guide, "restaurant", g.janta),
        ChangeOp::AddArc(g.janta, "address", g.janta_address)}},
      // Janta and the stillborn id, deleted one step earlier, come back;
      // the parking object is deleted, with its arc to live Bangkok.
      {Timestamp(300),
       {ChangeOp::CreNode(g.janta, Value::Complex()),
        ChangeOp::AddArc(g.guide, "restaurant", g.janta),
        ChangeOp::CreNode(100, Value::Int(2)),
        ChangeOp::AddArc(g.janta, "x", 100),
        ChangeOp::RemArc(g.bangkok, "parking", g.parking)}},
      // Janta's name, deleted two steps earlier, comes back; Janta
      // shares Bangkok's price.
      {Timestamp(400),
       {ChangeOp::CreNode(janta_name, Value::String("Janta")),
        ChangeOp::AddArc(g.janta, "name", janta_name),
        ChangeOp::AddArc(g.janta, "price", g.bangkok_price)}},
      // The shared arc is removed, then added again.
      {Timestamp(500), {ChangeOp::RemArc(g.janta, "price", g.bangkok_price)}},
      {Timestamp(600), {ChangeOp::AddArc(g.janta, "price", g.bangkok_price)}},
      // Refused: the parking object went one step before the last.
      {Timestamp(700), {ChangeOp::AddArc(g.janta, "parking", g.parking)}},
      {Timestamp(800),
       {ChangeOp::CreNode(g.parking, Value::Complex()),
        ChangeOp::AddArc(g.janta, "parking", g.parking)}}};
  size_t refused = 0;
  for (const auto& [t, ops] : sets) {
    const std::string where = "@" + t.ToString();
    DoemDatabase probe = ref;
    refused += !ReferenceRebase(&probe, t, ops).ok();
    ASSERT_NO_FATAL_FAILURE(ExpectSameStep(&*d, &ref, t, ops, where));
    if (t == Timestamp(100)) {
      EXPECT_TRUE(d->IsDeleted(g.janta));
      EXPECT_FALSE(d->IsDeleted(g.parking));
      EXPECT_FALSE(d->graph().HasNode(100)) << "stillborn";
    }
  }
  EXPECT_EQ(refused, 2u);
  EXPECT_EQ(d->CurrentValue(g.parking), Value::Complex());
  EXPECT_TRUE(d->CreTime(g.parking) == Timestamp(800));
  EXPECT_FALSE(d->CreTime(janta_name).has_value()) << "older steps are gone";
}

}  // namespace
}  // namespace doem
