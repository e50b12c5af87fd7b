#include <gtest/gtest.h>

#include "chorel/chorel.h"
#include "diff/diff.h"
#include "doem/doem.h"
#include "encoding/encode.h"
#include "oem/graph_compare.h"
#include "oem/oem_text.h"
#include "oem/subgraph.h"
#include "oracle.h"
#include "testing/generators.h"

namespace doem {
namespace {

using testing::ChorelQueryCorpus;
using testing::DatabaseOptions;
using testing::HistoryOptions;
using testing::RandomDatabase;
using testing::RandomHistory;

// Property tests, parameterized over random seeds. Each seed drives a
// distinct database/history shape; the properties are the paper's core
// claims (Section 3.2) plus this library's representation invariants.

class PropertyTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  OemDatabase MakeDb() const {
    DatabaseOptions opts;
    opts.seed = GetParam();
    opts.node_count = 80 + GetParam() % 60;
    opts.label_alphabet = 5 + GetParam() % 4;
    return RandomDatabase(opts);
  }

  OemHistory MakeHistory(const OemDatabase& db) const {
    HistoryOptions opts;
    opts.seed = GetParam() * 7 + 1;
    opts.steps = 6 + GetParam() % 6;
    opts.ops_per_step = 5 + GetParam() % 5;
    return RandomHistory(db, opts);
  }
};

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest, ::testing::Range(1u, 21u));

TEST_P(PropertyTest, GeneratedDatabasesAreWellFormed) {
  OemDatabase db = MakeDb();
  EXPECT_TRUE(db.Validate().ok());
  EXPECT_GE(db.node_count(), 80u);
}

TEST_P(PropertyTest, GeneratedHistoriesAreValid) {
  OemDatabase db = MakeDb();
  OemHistory h = MakeHistory(db);
  EXPECT_TRUE(h.ValidateFor(db).ok());
}

TEST_P(PropertyTest, OriginalSnapshotRecoversBase) {
  // Section 3.2: "It is easy to obtain the original snapshot O_0(D)".
  OemDatabase db = MakeDb();
  OemHistory h = MakeHistory(db);
  auto d = DoemDatabase::Build(db, h);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_TRUE(d->OriginalSnapshot().Equals(db));
}

TEST_P(PropertyTest, SnapshotAtEveryStepMatchesReplay) {
  // O_{t_i}(D) must equal the state after replaying U_1..U_i directly.
  OemDatabase db = MakeDb();
  OemHistory h = MakeHistory(db);
  auto d = DoemDatabase::Build(db, h);
  ASSERT_TRUE(d.ok());
  OemDatabase replay = db;
  for (const HistoryStep& step : h.steps()) {
    ASSERT_TRUE(ApplyChangeSet(&replay, step.changes).ok());
    OemDatabase snap = d->SnapshotAt(step.time);
    EXPECT_TRUE(snap.Equals(replay))
        << "divergence at " << step.time.ToString();
    // And just before the next step the state is unchanged.
    OemDatabase later = d->SnapshotAt(Timestamp(step.time.ticks + 1));
    EXPECT_TRUE(later.Equals(replay));
  }
  EXPECT_TRUE(d->CurrentSnapshot().Equals(replay));
}

TEST_P(PropertyTest, ExtractedHistoryRebuildsIdenticalDoem) {
  // Section 3.2's uniqueness/faithfulness: D(O_0(D), H(D)) == D, and the
  // extraction is a fixpoint.
  OemDatabase db = MakeDb();
  OemHistory h = MakeHistory(db);
  auto d = DoemDatabase::Build(db, h);
  ASSERT_TRUE(d.ok());
  OemHistory extracted = d->ExtractHistory();
  auto rebuilt = DoemDatabase::Build(d->OriginalSnapshot(), extracted);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_TRUE(rebuilt->Equals(*d));
  EXPECT_TRUE(rebuilt->ExtractHistory().Equals(extracted));
  EXPECT_TRUE(d->IsFeasible());
}

TEST_P(PropertyTest, EncodingRoundTrips) {
  // Section 5.1: the OEM encoding fully represents the DOEM database.
  OemDatabase db = MakeDb();
  auto d = DoemDatabase::Build(db, MakeHistory(db));
  ASSERT_TRUE(d.ok());
  auto enc = EncodeDoem(*d);
  ASSERT_TRUE(enc.ok()) << enc.status().ToString();
  EXPECT_TRUE(enc->Validate().ok());
  auto dec = DecodeDoem(*enc);
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  EXPECT_TRUE(dec->Equals(*d));
}

TEST_P(PropertyTest, OemTextRoundTrips) {
  OemDatabase db = MakeDb();
  auto parsed = ParseOemText(WriteOemText(db));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->Equals(db));
}

TEST_P(PropertyTest, KeyedDiffReconstructsTarget) {
  OemDatabase from = MakeDb();
  OemDatabase to = from;
  ASSERT_TRUE(MakeHistory(from).ApplyTo(&to).ok());
  auto ops = DiffSnapshots(from, to, DiffMode::kKeyed);
  ASSERT_TRUE(ops.ok()) << ops.status().ToString();
  OemDatabase patched = from;
  ASSERT_TRUE(ApplyChangeSet(&patched, *ops).ok());
  EXPECT_TRUE(patched.Equals(to));
}

TEST_P(PropertyTest, StructuralDiffReconstructsUpToIsomorphism) {
  OemDatabase from = MakeDb();
  OemDatabase evolved = from;
  ASSERT_TRUE(MakeHistory(from).ApplyTo(&evolved).ok());
  // Remap the target into a fresh id space, as a non-id-preserving
  // wrapper would.
  OemDatabase to;
  to.ReserveIdsBelow(evolved.PeekNextId() + 1000);
  auto map = CopyReachable(evolved, {evolved.root()}, &to, false);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(to.SetRoot(map->at(evolved.root())).ok());

  auto ops = DiffSnapshots(from, to, DiffMode::kStructural);
  ASSERT_TRUE(ops.ok()) << ops.status().ToString();
  OemDatabase patched = from;
  Status s = ApplyChangeSet(&patched, *ops);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(Isomorphic(patched, to));
}

TEST_P(PropertyTest, DirectAndTranslatedChorelAgree) {
  // Both implementation strategies of Section 5 must return the same
  // rows for every supported query.
  DatabaseOptions dbo;
  dbo.seed = GetParam();
  dbo.node_count = 60;
  dbo.label_alphabet = 4;
  OemDatabase db = RandomDatabase(dbo);
  auto d = DoemDatabase::Build(db, MakeHistory(db));
  ASSERT_TRUE(d.ok());
  chorel::ChorelEngine engine(*d);
  for (const std::string& q : ChorelQueryCorpus(dbo.label_alphabet)) {
    auto direct = engine.Run(q, chorel::Strategy::kDirect);
    auto translated = engine.Run(q, chorel::Strategy::kTranslated);
    ASSERT_TRUE(direct.ok()) << q << "\n" << direct.status().ToString();
    ASSERT_TRUE(translated.ok()) << q << "\n"
                                 << translated.status().ToString();
    EXPECT_EQ(oracle::SortedRows(*direct), oracle::SortedRows(*translated))
        << q;
  }
}

TEST_P(PropertyTest, SyntheticGuideIsWellFormed) {
  OemDatabase g = testing::SyntheticGuide(50, GetParam());
  EXPECT_TRUE(g.Validate().ok());
  OemHistory h = testing::SyntheticGuideHistory(g, 8, 6, GetParam());
  EXPECT_TRUE(h.ValidateFor(g).ok());
  auto d = DoemDatabase::Build(g, h);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_TRUE(d->IsFeasible());
}

}  // namespace
}  // namespace doem
