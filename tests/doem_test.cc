#include <gtest/gtest.h>

#include "doem/doem.h"
#include "oem/graph_compare.h"
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

}  // namespace
}  // namespace doem
