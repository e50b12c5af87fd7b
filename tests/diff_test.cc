#include <gtest/gtest.h>

#include "diff/diff.h"
#include "oem/graph_compare.h"
#include "oem/history.h"
#include "oem/subgraph.h"
#include "testing/generators.h"
#include "testing/guide.h"

namespace doem {
namespace {

using testing::BuildGuide;
using testing::Guide;
using testing::GuideHistory;

// Applies a computed diff and checks the contract for each mode.
void CheckDiff(const OemDatabase& from, const OemDatabase& to,
               DiffMode mode) {
  auto ops = DiffSnapshots(from, to, mode);
  ASSERT_TRUE(ops.ok()) << ops.status().ToString();
  OemDatabase patched = from;
  Status s = ApplyChangeSet(&patched, *ops);
  ASSERT_TRUE(s.ok()) << s.ToString() << "\n" << ChangeSetToString(*ops);
  if (mode == DiffMode::kKeyed) {
    EXPECT_TRUE(patched.Equals(to)) << ChangeSetToString(*ops);
  } else {
    EXPECT_TRUE(Isomorphic(patched, to)) << ChangeSetToString(*ops);
  }
}

class DiffBothModes : public ::testing::TestWithParam<DiffMode> {};

INSTANTIATE_TEST_SUITE_P(Modes, DiffBothModes,
                         ::testing::Values(DiffMode::kKeyed,
                                           DiffMode::kStructural),
                         [](const auto& info) {
                           return info.param == DiffMode::kKeyed
                                      ? "Keyed"
                                      : "Structural";
                         });

TEST_P(DiffBothModes, IdenticalSnapshotsYieldEmptyDiff) {
  Guide a = BuildGuide();
  Guide b = BuildGuide();
  auto ops = DiffSnapshots(a.db, b.db, GetParam());
  ASSERT_TRUE(ops.ok());
  EXPECT_TRUE(ops->empty());
}

TEST_P(DiffBothModes, GuideHistoryEndpoints) {
  // Figure 2 -> Figure 3: the diff must reproduce the change, whatever
  // the operation mix.
  Guide from = BuildGuide();
  OemDatabase to = BuildGuide().db;
  ASSERT_TRUE(GuideHistory().ApplyTo(&to).ok());
  CheckDiff(from.db, to, GetParam());
}

TEST_P(DiffBothModes, ValueUpdate) {
  Guide a = BuildGuide();
  OemDatabase b = BuildGuide().db;
  ASSERT_TRUE(b.UpdNode(1, Value::Int(42)).ok());
  CheckDiff(a.db, b, GetParam());
}

TEST_P(DiffBothModes, SubtreeDeletion) {
  Guide a = BuildGuide();
  OemDatabase b = BuildGuide().db;
  ASSERT_TRUE(b.RemArc(4, "restaurant", 6).ok());
  b.CollectGarbage();
  CheckDiff(a.db, b, GetParam());
}

TEST_P(DiffBothModes, SubtreeAddition) {
  Guide a = BuildGuide();
  OemDatabase b = BuildGuide().db;
  NodeId r = b.NewComplex();
  ASSERT_TRUE(b.AddArc(4, "restaurant", r).ok());
  ASSERT_TRUE(b.AddArc(r, "name", b.NewString("Hakata")).ok());
  ASSERT_TRUE(b.AddArc(r, "price", b.NewInt(15)).ok());
  CheckDiff(a.db, b, GetParam());
}

TEST_P(DiffBothModes, ComplexToAtomicTransition) {
  Guide a = BuildGuide();
  OemDatabase b = BuildGuide().db;
  // Janta's address collapses from a complex object to a string.
  NodeId addr = b.Child(6, "address");
  for (const OutArc& arc : std::vector<OutArc>(b.OutArcs(addr))) {
    ASSERT_TRUE(b.RemArc(addr, arc.label, arc.child).ok());
  }
  ASSERT_TRUE(b.UpdNode(addr, Value::String("Lytton, Palo Alto")).ok());
  b.CollectGarbage();
  CheckDiff(a.db, b, GetParam());
}

TEST_P(DiffBothModes, SharedNodeRewiring) {
  Guide a = BuildGuide();
  OemDatabase b = BuildGuide().db;
  // Move the nearby-eats arc from Bangkok to Janta.
  Guide g = BuildGuide();
  ASSERT_TRUE(b.RemArc(7, "nearby-eats", g.bangkok).ok());
  ASSERT_TRUE(b.AddArc(7, "nearby-eats", 6).ok());
  CheckDiff(a.db, b, GetParam());
}

TEST(KeyedDiffTest, ExactOpCounts) {
  // Keyed diff of the Example 2.2 modifications recovers exactly the
  // paper's operation counts: 1 upd + 3 cre + 3 add + 1 rem.
  Guide from = BuildGuide();
  OemDatabase to = BuildGuide().db;
  ASSERT_TRUE(GuideHistory().ApplyTo(&to).ok());
  auto ops = DiffSnapshots(from.db, to, DiffMode::kKeyed);
  ASSERT_TRUE(ops.ok());
  DiffStats s = SummarizeChanges(*ops);
  EXPECT_EQ(s.creations, 3u);
  EXPECT_EQ(s.updates, 1u);
  EXPECT_EQ(s.arc_additions, 3u);
  EXPECT_EQ(s.arc_removals, 1u);
}

TEST(StructuralDiffTest, MatchesAcrossIdRenaming) {
  // The same structure with disjoint id spaces: a good matching finds
  // zero or near-zero changes; correctness requires isomorphism after
  // patching either way.
  Guide a = BuildGuide();
  // Build the second snapshot as a fresh-id copy of the first.
  OemDatabase source = a.db;
  OemDatabase fresh;
  fresh.ReserveIdsBelow(source.PeekNextId() + 100);
  auto map = CopyReachable(source, {source.root()}, &fresh, false);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(fresh.SetRoot(map->at(source.root())).ok());

  auto ops = DiffSnapshots(a.db, fresh, DiffMode::kStructural);
  ASSERT_TRUE(ops.ok());
  EXPECT_TRUE(ops->empty()) << "identical structures should fully match: "
                            << ChangeSetToString(*ops);
}

TEST(StructuralDiffTest, UpdateDetectedAcrossIdRenaming) {
  // Same structure, fresh ids, one changed value: the matcher should
  // find the update rather than recreating the subtree.
  Guide a = BuildGuide();
  OemDatabase fresh;
  fresh.ReserveIdsBelow(a.db.PeekNextId() + 100);
  auto map = CopyReachable(a.db, {a.db.root()}, &fresh, false);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(fresh.SetRoot(map->at(a.db.root())).ok());
  ASSERT_TRUE(fresh.UpdNode(map->at(1), Value::Int(20)).ok());

  auto ops = DiffSnapshots(a.db, fresh, DiffMode::kStructural);
  ASSERT_TRUE(ops.ok());
  DiffStats s = SummarizeChanges(*ops);
  EXPECT_EQ(s.updates, 1u) << ChangeSetToString(*ops);
  EXPECT_EQ(s.creations, 0u) << ChangeSetToString(*ops);
  CheckDiff(a.db, fresh, DiffMode::kStructural);
}

// A keyed diff read straight off NodeIds() and AllArcs(): the reference
// for the ops, and their order, of the one-pass diff over node records.
ChangeSet ReferenceKeyedDiff(const OemDatabase& from, const OemDatabase& to) {
  ChangeSet ops;
  for (NodeId n : to.NodeIds()) {
    const Value& tv = *to.GetValue(n);
    const Value* fv = from.GetValue(n);
    if (fv == nullptr) {
      ops.push_back(ChangeOp::CreNode(n, tv));
    } else if (!(*fv == tv)) {
      ops.push_back(ChangeOp::UpdNode(n, tv));
    }
  }
  for (const Arc& a : to.AllArcs()) {
    if (!from.HasArc(a.parent, a.label, a.child)) {
      ops.push_back(ChangeOp::AddArc(a.parent, a.label, a.child));
    }
  }
  for (const Arc& a : from.AllArcs()) {
    if (!to.HasNode(a.parent)) continue;
    if (!to.HasArc(a.parent, a.label, a.child)) {
      ops.push_back(ChangeOp::RemArc(a.parent, a.label, a.child));
    }
  }
  return ops;
}

// The same ops in the same order as the reference, not only an equal set.
void ExpectSameAsReference(const OemDatabase& from, const OemDatabase& to) {
  auto ops = DiffSnapshots(from, to, DiffMode::kKeyed);
  ASSERT_TRUE(ops.ok()) << ops.status().ToString();
  ChangeSet expected = ReferenceKeyedDiff(from, to);
  EXPECT_EQ(*ops, expected) << "got:\n"
                            << ChangeSetToString(*ops) << "expected:\n"
                            << ChangeSetToString(expected);
}

TEST(KeyedDiffTest, SameOpsInSameOrderAsReference) {
  // Every kind of op: Bangkok gets its name arc re-added (it moves to the
  // end of the out-arc list, which is no change) and loses its cuisine
  // arc while surviving; Janta (6) is deleted, so its own arcs and its
  // address's are skipped; a new restaurant is created and a price is
  // updated.
  Guide g = BuildGuide();
  OemDatabase to = g.db;
  const OutArc name = to.OutArcs(g.bangkok).front();
  ASSERT_EQ(name.label, "name");
  ASSERT_TRUE(to.RemArc(g.bangkok, name.label, name.child).ok());
  ASSERT_TRUE(to.AddArc(g.bangkok, name.label, name.child).ok());
  ASSERT_TRUE(
      to.RemArc(g.bangkok, "cuisine", to.Child(g.bangkok, "cuisine")).ok());
  ASSERT_TRUE(to.RemArc(4, "restaurant", 6).ok());
  NodeId r = to.NewComplex();
  ASSERT_TRUE(to.AddArc(4, "restaurant", r).ok());
  ASSERT_TRUE(to.AddArc(r, "name", to.NewString("Hakata")).ok());
  ASSERT_TRUE(to.AddArc(r, "price", to.NewInt(15)).ok());
  ASSERT_TRUE(to.UpdNode(1, Value::Int(42)).ok());
  to.CollectGarbage();
  ASSERT_FALSE(to.HasNode(6));
  ASSERT_FALSE(to.HasNode(g.janta_address));

  ExpectSameAsReference(g.db, to);
  auto ops = DiffSnapshots(g.db, to, DiffMode::kKeyed);
  ASSERT_TRUE(ops.ok());
  DiffStats s = SummarizeChanges(*ops);
  EXPECT_EQ(s.creations, 3u);
  EXPECT_EQ(s.updates, 1u);
  EXPECT_EQ(s.arc_additions, 3u);
  EXPECT_EQ(s.arc_removals, 2u) << "Janta's and its address's arcs skipped";
  // The reverse direction turns every op kind around.
  ExpectSameAsReference(to, g.db);
}

TEST(KeyedDiffTest, SameAsReferenceOverRandomPairs) {
  for (uint32_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    testing::DatabaseOptions opts;
    opts.seed = seed;
    opts.node_count = 60 + 20 * seed;
    OemDatabase from = testing::RandomDatabase(opts);
    // A random history's endpoint: creations, updates, arc additions and
    // removals, and deletions by unreachability.
    OemDatabase to = from;
    testing::HistoryOptions hopts;
    hopts.seed = seed + 100;
    hopts.steps = 4;
    ASSERT_TRUE(testing::RandomHistory(from, hopts).ApplyTo(&to).ok());
    ExpectSameAsReference(from, to);
    ExpectSameAsReference(to, from);
    // Two unrelated databases over overlapping ids.
    opts.seed = seed + 1000;
    OemDatabase other = testing::RandomDatabase(opts);
    ExpectSameAsReference(from, other);
  }
}

TEST(KeyedDiffTest, SameAsReferenceOverGuideSteps) {
  // Step by step, as QSS diffs successive polls: the churn updates only
  // prices, the guide history also creates restaurants and removes
  // parking arcs.
  const OemDatabase guide = testing::SyntheticGuide(40);
  for (const OemHistory& h :
       {testing::SyntheticGuideChurn(guide, 12, 4),
        testing::SyntheticGuideHistory(guide, 12, 6)}) {
    OemDatabase before = guide;
    for (const HistoryStep& step : h.steps()) {
      OemDatabase after = before;
      ASSERT_TRUE(ApplyChangeSet(&after, step.changes).ok());
      ExpectSameAsReference(before, after);
      before = std::move(after);
    }
  }
}

// The structural diff's ops read straight off NodeIds() and AllArcs(),
// against the same matching: the reference for the ops, and their order,
// of the diff over node records.
ChangeSet ReferenceStructuralDiff(const OemDatabase& from,
                                  const OemDatabase& to) {
  std::unordered_map<NodeId, NodeId> fwd = MatchStructure(from, to);
  std::unordered_map<NodeId, NodeId> rev;
  for (const auto& [f, t] : fwd) rev[t] = f;
  ChangeSet ops;
  NodeId next_fresh = std::max(from.PeekNextId(), to.PeekNextId());
  for (NodeId t : to.NodeIds()) {
    if (!rev.contains(t)) {
      NodeId fresh = next_fresh++;
      rev[t] = fresh;
      ops.push_back(ChangeOp::CreNode(fresh, *to.GetValue(t)));
    }
  }
  for (const auto& [f, t] : fwd) {
    if (!(*from.GetValue(f) == *to.GetValue(t))) {
      ops.push_back(ChangeOp::UpdNode(f, *to.GetValue(t)));
    }
  }
  for (const Arc& a : to.AllArcs()) {
    NodeId p = rev.at(a.parent);
    NodeId c = rev.at(a.child);
    if (!from.HasNode(p) || !from.HasNode(c) ||
        !from.HasArc(p, a.label, c)) {
      ops.push_back(ChangeOp::AddArc(p, a.label, c));
    }
  }
  for (const Arc& a : from.AllArcs()) {
    auto fp = fwd.find(a.parent);
    if (fp == fwd.end()) continue;
    auto fc = fwd.find(a.child);
    if (fc == fwd.end() || !to.HasArc(fp->second, a.label, fc->second)) {
      ops.push_back(ChangeOp::RemArc(a.parent, a.label, a.child));
    }
  }
  return ops;
}

// Adds the ops' counts to `*seen`, if non-null.
void ExpectSameAsStructuralReference(const OemDatabase& from,
                                     const OemDatabase& to,
                                     DiffStats* seen = nullptr) {
  auto ops = DiffSnapshots(from, to, DiffMode::kStructural);
  ASSERT_TRUE(ops.ok()) << ops.status().ToString();
  if (seen != nullptr) {
    DiffStats s = SummarizeChanges(*ops);
    seen->creations += s.creations;
    seen->updates += s.updates;
    seen->arc_additions += s.arc_additions;
    seen->arc_removals += s.arc_removals;
  }
  ChangeSet expected = ReferenceStructuralDiff(from, to);
  EXPECT_EQ(*ops, expected) << "got:\n"
                            << ChangeSetToString(*ops) << "expected:\n"
                            << ChangeSetToString(expected);
}

// `db` with every id moved above both id spaces, as a source that
// re-packages each answer hands it over.
OemDatabase Renumbered(const OemDatabase& db, NodeId floor) {
  OemDatabase fresh;
  fresh.ReserveIdsBelow(floor);
  auto map = CopyReachable(db, {db.root()}, &fresh, false);
  EXPECT_TRUE(map.ok());
  EXPECT_TRUE(fresh.SetRoot(map->at(db.root())).ok());
  return fresh;
}

TEST(StructuralDiffTest, SameAsReferenceOverRandomPairs) {
  DiffStats seen;
  for (uint32_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    testing::DatabaseOptions opts;
    opts.seed = seed;
    opts.node_count = 40 + 20 * seed;
    OemDatabase from = testing::RandomDatabase(opts);
    OemDatabase to = from;
    testing::HistoryOptions hopts;
    hopts.seed = seed + 100;
    hopts.steps = 4;
    ASSERT_TRUE(testing::RandomHistory(from, hopts).ApplyTo(&to).ok());
    ExpectSameAsStructuralReference(from, to, &seen);
    ExpectSameAsStructuralReference(to, from, &seen);
    OemDatabase moved = Renumbered(to, from.PeekNextId() + 1000);
    ExpectSameAsStructuralReference(from, moved, &seen);
    ExpectSameAsStructuralReference(moved, from, &seen);
    opts.seed = seed + 1000;
    ExpectSameAsStructuralReference(from, testing::RandomDatabase(opts),
                                    &seen);
  }
  // Every kind of op, so each sorted key order is checked.
  EXPECT_GT(seen.creations, 0u);
  EXPECT_GT(seen.updates, 0u);
  EXPECT_GT(seen.arc_additions, 0u);
  EXPECT_GT(seen.arc_removals, 0u);
}

TEST(StructuralDiffTest, SameAsReferenceOverGuideSteps) {
  const OemDatabase guide = testing::SyntheticGuide(40);
  for (const OemHistory& h :
       {testing::SyntheticGuideChurn(guide, 12, 4),
        testing::SyntheticGuideHistory(guide, 12, 6)}) {
    OemDatabase before = guide;
    for (const HistoryStep& step : h.steps()) {
      OemDatabase after = before;
      ASSERT_TRUE(ApplyChangeSet(&after, step.changes).ok());
      ExpectSameAsStructuralReference(before, after);
      ExpectSameAsStructuralReference(
          before, Renumbered(after, after.PeekNextId() + 1000));
      before = std::move(after);
    }
  }
  // The paper's guide and its Example 2.2 modifications.
  Guide g = BuildGuide();
  OemDatabase to = g.db;
  ASSERT_TRUE(GuideHistory().ApplyTo(&to).ok());
  ExpectSameAsStructuralReference(g.db, to);
  ExpectSameAsStructuralReference(to, g.db);
}

TEST(DiffTest, RejectsIllFormedInputs) {
  OemDatabase no_root;
  no_root.NewComplex();
  Guide g = BuildGuide();
  EXPECT_FALSE(DiffSnapshots(no_root, g.db, DiffMode::kKeyed).ok());
  EXPECT_FALSE(DiffSnapshots(g.db, no_root, DiffMode::kKeyed).ok());
}

TEST(DiffTest, StatsToString) {
  DiffStats s{1, 2, 3, 4};
  EXPECT_EQ(s.ToString(),
            "1 creations, 2 updates, 3 arc additions, 4 arc removals");
}

}  // namespace
}  // namespace doem
