#include <gtest/gtest.h>

#include "doem/doem.h"
#include "encoding/doem_text.h"
#include "encoding/encode.h"
#include "testing/guide.h"

namespace doem {
namespace {

using testing::BuildGuide;
using testing::Guide;
using testing::GuideDoem;
using testing::GuideHistory;
using testing::GuideT1;
using testing::GuideT3;

TEST(EncodingLabelTest, HistoryLabelRoundTrip) {
  EXPECT_EQ(HistoryLabelFor("price"), "&price-history");
  std::string label;
  ASSERT_TRUE(LabelFromHistory("&price-history", &label));
  EXPECT_EQ(label, "price");
  // A source label that itself ends in "-history" still round-trips.
  ASSERT_TRUE(LabelFromHistory(HistoryLabelFor("x-history"), &label));
  EXPECT_EQ(label, "x-history");
  EXPECT_FALSE(LabelFromHistory("price", &label));
  EXPECT_FALSE(LabelFromHistory("&upd", &label));
  EXPECT_TRUE(IsEncodingLabel("&val"));
  EXPECT_FALSE(IsEncodingLabel("val"));
}

TEST(EncodingTest, Figure5Structure) {
  DoemDatabase d = GuideDoem();
  auto enc = EncodeDoem(d);
  ASSERT_TRUE(enc.ok()) << enc.status().ToString();
  const OemDatabase& e = *enc;
  EXPECT_TRUE(e.Validate().ok()) << e.Validate().ToString();
  EXPECT_EQ(e.root(), d.root());
  EXPECT_EQ(e.Child(e.root(), "guide"), NodeId{4});

  // Complex object: &val self-loop.
  EXPECT_EQ(e.Child(4, "&val"), NodeId{4});

  // Updated atomic object n1: &val holds the *current* value 20; one &upd
  // record with &time/&ov/&nv (Figure 5 left).
  NodeId val1 = e.Child(1, "&val");
  ASSERT_NE(val1, kInvalidNode);
  EXPECT_EQ(e.GetValue(val1)->AsInt(), 20);
  std::vector<NodeId> upds = e.Children(1, "&upd");
  ASSERT_EQ(upds.size(), 1u);
  EXPECT_EQ(e.GetValue(e.Child(upds[0], "&time"))->AsTime(), GuideT1());
  EXPECT_EQ(e.GetValue(e.Child(upds[0], "&ov"))->AsInt(), 10);
  EXPECT_EQ(e.GetValue(e.Child(upds[0], "&nv"))->AsInt(), 20);

  // Created node n2: &cre with t1.
  NodeId cre2 = e.Child(2, "&cre");
  ASSERT_NE(cre2, kInvalidNode);
  EXPECT_EQ(e.GetValue(cre2)->AsTime(), GuideT1());

  // Removed arc (6, parking, 7): NOT accessible via the label "parking"
  // (Figure 5 right / Section 5.2's point about current arcs), but its
  // history object exists with a &rem timestamp and &target n7.
  EXPECT_TRUE(e.Children(6, "parking").empty());
  std::vector<NodeId> hist = e.Children(6, "&parking-history");
  ASSERT_EQ(hist.size(), 1u);
  EXPECT_EQ(e.Child(hist[0], "&target"), NodeId{7});
  NodeId rem = e.Child(hist[0], "&rem");
  ASSERT_NE(rem, kInvalidNode);
  EXPECT_EQ(e.GetValue(rem)->AsTime(), GuideT3());
  EXPECT_TRUE(e.Children(hist[0], "&add").empty());

  // Live original arc: present under its own label AND as history with no
  // annotations.
  ASSERT_EQ(e.Children(6, "name").size(), 1u);
  std::vector<NodeId> name_hist = e.Children(6, "&name-history");
  ASSERT_EQ(name_hist.size(), 1u);
  EXPECT_TRUE(e.Children(name_hist[0], "&add").empty());
  EXPECT_TRUE(e.Children(name_hist[0], "&rem").empty());

  // Added arc (4, restaurant, 2): current arc plus &add annotation.
  std::vector<NodeId> rests = e.Children(4, "restaurant");
  EXPECT_EQ(rests.size(), 3u);
  bool found_add = false;
  for (NodeId h : e.Children(4, "&restaurant-history")) {
    if (e.Child(h, "&target") == NodeId{2}) {
      NodeId add = e.Child(h, "&add");
      ASSERT_NE(add, kInvalidNode);
      EXPECT_EQ(e.GetValue(add)->AsTime(), GuideT1());
      found_add = true;
    }
  }
  EXPECT_TRUE(found_add);
}

TEST(EncodingTest, EncodingObjectsAreAllComplex) {
  auto enc = EncodeDoem(GuideDoem());
  ASSERT_TRUE(enc.ok());
  // Every node that was a DOEM object (has &val) is complex in the
  // encoding, even the ones encoding atomic objects.
  for (NodeId n : enc->NodeIds()) {
    if (!enc->Children(n, "&val").empty()) {
      EXPECT_TRUE(enc->GetValue(n)->is_complex());
    }
  }
}

TEST(EncodingTest, RoundTripGuide) {
  DoemDatabase d = GuideDoem();
  auto enc = EncodeDoem(d);
  ASSERT_TRUE(enc.ok()) << enc.status().ToString();
  auto dec = DecodeDoem(*enc);
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  EXPECT_TRUE(dec->Equals(d)) << "decoded:\n"
                              << dec->ToString() << "original:\n"
                              << d.ToString();
}

TEST(EncodingTest, RoundTripNoHistory) {
  auto d = DoemDatabase::FromSnapshot(BuildGuide().db);
  ASSERT_TRUE(d.ok());
  auto enc = EncodeDoem(*d);
  ASSERT_TRUE(enc.ok());
  auto dec = DecodeDoem(*enc);
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  EXPECT_TRUE(dec->Equals(*d));
}

TEST(EncodingTest, RoundTripWithComplexToAtomicTransition) {
  DoemDatabase d = GuideDoem();
  Timestamp t(GuideT3().ticks + 1);
  ChangeSet ops;
  for (const OutArc& a : d.LiveArcs(7)) {
    ops.push_back(ChangeOp::RemArc(7, a.label, a.child));
  }
  ops.push_back(ChangeOp::UpdNode(7, Value::String("gone")));
  ASSERT_TRUE(d.ApplyChangeSet(t, ops).ok());
  auto enc = EncodeDoem(d);
  ASSERT_TRUE(enc.ok()) << enc.status().ToString();
  // n7 is atomic now: &val points to an atom, yet history objects for its
  // removed arcs are still there.
  EXPECT_NE(enc->Child(7, "&val"), NodeId{7});
  EXPECT_FALSE(enc->Children(7, "&lot-history").empty());
  auto dec = DecodeDoem(*enc);
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  EXPECT_TRUE(dec->Equals(d));
}

TEST(EncodingTest, RoundTripWithDeletedSubtree) {
  DoemDatabase d = GuideDoem();
  ASSERT_TRUE(d.ApplyChangeSet(Timestamp(GuideT3().ticks + 1),
                               {ChangeOp::RemArc(4, "restaurant", 6)})
                  .ok());
  ASSERT_TRUE(d.IsDeleted(6));
  auto enc = EncodeDoem(d);
  ASSERT_TRUE(enc.ok()) << enc.status().ToString();
  // The deleted Janta encoding is still reachable via its history object.
  EXPECT_TRUE(enc->Validate().ok());
  EXPECT_TRUE(enc->HasNode(6));
  auto dec = DecodeDoem(*enc);
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  EXPECT_TRUE(dec->Equals(d));
  EXPECT_TRUE(dec->IsDeleted(6));
}

TEST(EncodingTest, RejectsReservedSourceLabels) {
  OemDatabase base;
  NodeId root = base.NewComplex();
  ASSERT_TRUE(base.SetRoot(root).ok());
  ASSERT_TRUE(base.AddArc(root, "&val", base.NewInt(1)).ok());
  auto d = DoemDatabase::FromSnapshot(base);
  ASSERT_TRUE(d.ok());
  EXPECT_FALSE(EncodeDoem(*d).ok());
}

TEST(EncodingTest, DecodeRejectsCorruptEncodings) {
  DoemDatabase d = GuideDoem();
  auto enc = EncodeDoem(d);
  ASSERT_TRUE(enc.ok());

  {
    // Break consistency: expose the removed parking arc as current.
    OemDatabase bad = *enc;
    ASSERT_TRUE(bad.AddArc(6, "parking", 7).ok());
    EXPECT_FALSE(DecodeDoem(bad).ok());
  }
  {
    // A current arc without a history object.
    OemDatabase bad = *enc;
    ASSERT_TRUE(bad.AddArc(6, "extra", 7).ok());
    EXPECT_FALSE(DecodeDoem(bad).ok());
  }
  {
    // Remove a &val arc: node 1 stops being an encoding object, so the
    // history &target pointing at it dangles.
    OemDatabase bad = *enc;
    NodeId val1 = bad.Child(1, "&val");
    ASSERT_TRUE(bad.RemArc(1, "&val", val1).ok());
    EXPECT_FALSE(DecodeDoem(bad).ok());
  }
}

TEST(EncodingTest, DecodeFreshDatabaseIsFeasible) {
  auto dec = DecodeDoem(*EncodeDoem(GuideDoem()));
  ASSERT_TRUE(dec.ok());
  EXPECT_TRUE(dec->IsFeasible());
}

TEST(EncodingTest, EncodingGrowth) {
  // Documented size characteristics: every object gains a &val arc, every
  // arc gains a history object with a &target arc.
  Guide g = BuildGuide();
  size_t nodes = g.db.node_count();
  size_t arcs = g.db.arc_count();
  auto d = DoemDatabase::FromSnapshot(g.db);
  ASSERT_TRUE(d.ok());
  auto enc = EncodeDoem(*d);
  ASSERT_TRUE(enc.ok());
  // Nodes: original + one value atom per atomic object + one history
  // object per arc.
  size_t atomic = 0;
  for (NodeId n : g.db.NodeIds()) {
    if (g.db.GetValue(n)->is_atomic()) ++atomic;
  }
  EXPECT_EQ(enc->node_count(), nodes + atomic + arcs);
  // Arcs: &val per node, current arc + history arc + &target per arc.
  EXPECT_EQ(enc->arc_count(), nodes + 3 * arcs);
}

}  // namespace
}  // namespace doem
namespace doem {
namespace {

TEST(DoemTextTest, RoundTripsFullState) {
  auto d = DoemDatabase::Build(doem::testing::BuildGuide().db,
                               doem::testing::GuideHistory());
  ASSERT_TRUE(d.ok());
  // Delete a subtree so the deleted set is non-trivial.
  ASSERT_TRUE(d->ApplyChangeSet(Timestamp::FromDate(1997, 2, 1),
                                {ChangeOp::RemArc(4, "restaurant", 6)})
                  .ok());
  std::string text = WriteDoemText(*d);
  EXPECT_FALSE(text.empty());
  auto parsed = ParseDoemText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->Equals(*d));
  EXPECT_TRUE(parsed->IsDeleted(6));
  EXPECT_TRUE(parsed->IsFeasible());
}

TEST(DoemTextTest, RejectsGarbage) {
  EXPECT_FALSE(ParseDoemText("not oem text").ok());
  EXPECT_FALSE(ParseDoemText("&1 { a: &2 5 }").ok())
      << "valid OEM text but not a DOEM encoding (no &val arcs)";
}

}  // namespace
}  // namespace doem
