#include <gtest/gtest.h>

#include "doem/annotation_index.h"
#include "testing/generators.h"
#include "testing/guide.h"

namespace doem {
namespace {

using testing::GuideDoem;
using testing::GuideT1;
using testing::GuideT2;
using testing::GuideT3;

TEST(AnnotationIndexTest, GuideRanges) {
  DoemDatabase d = GuideDoem();
  AnnotationIndex index(d);
  EXPECT_EQ(index.entry_count(), 8u)
      << "3 cre + 1 upd + 3 add + 1 rem (Example 3.1)";

  auto created_t1 = index.CreatedIn(GuideT1(), GuideT1());
  ASSERT_EQ(created_t1.size(), 2u);
  auto created_all =
      index.CreatedIn(Timestamp::NegativeInfinity(),
                      Timestamp::PositiveInfinity());
  EXPECT_EQ(created_all.size(), 3u);

  auto updated = index.UpdatedIn(GuideT1(), GuideT3());
  ASSERT_EQ(updated.size(), 1u);
  EXPECT_EQ(updated[0].node, NodeId{1});

  auto removed = index.RemovedIn(GuideT2(), GuideT3());
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].arc, (Arc{6, "parking", 7}));
  EXPECT_TRUE(index.RemovedIn(GuideT1(), GuideT2()).empty());

  auto added_late = index.AddedIn(GuideT2(), GuideT3());
  ASSERT_EQ(added_late.size(), 1u);
  EXPECT_EQ(added_late[0].arc.label, "comment");
}

TEST(AnnotationIndexTest, EmptyAndDegenerateRanges) {
  DoemDatabase d = GuideDoem();
  AnnotationIndex index(d);
  EXPECT_TRUE(index.CreatedIn(Timestamp(0), Timestamp(0)).empty());
  EXPECT_TRUE(
      index.AddedIn(GuideT3(), GuideT1()).empty());  // inverted range
}

TEST(AnnotationIndexTest, AgreesWithScansOnRandomDatabases) {
  for (uint32_t seed = 1; seed <= 8; ++seed) {
    testing::DatabaseOptions dbo;
    dbo.seed = seed;
    OemDatabase base = testing::RandomDatabase(dbo);
    testing::HistoryOptions ho;
    ho.seed = seed + 100;
    ho.steps = 12;
    auto d = DoemDatabase::Build(base, testing::RandomHistory(base, ho));
    ASSERT_TRUE(d.ok());
    AnnotationIndex index(*d);
    for (auto [lo, hi] : {std::pair<int64_t, int64_t>{100, 150},
                          {120, 220},
                          {0, 1000},
                          {500, 400}}) {
      Timestamp from(lo), to(hi);
      auto a = index.CreatedIn(from, to);
      auto b = ScanCreatedIn(*d, from, to);
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].time, b[i].time);
      }
      auto c = index.AddedIn(from, to);
      auto e = ScanAddedIn(*d, from, to);
      ASSERT_EQ(c.size(), e.size());
      for (size_t i = 0; i < c.size(); ++i) {
        EXPECT_EQ(c[i].time, e[i].time);
        EXPECT_EQ(c[i].arc, e[i].arc);
      }
    }
  }
}

}  // namespace
}  // namespace doem
