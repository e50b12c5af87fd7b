#include "oem/node_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

namespace doem {
namespace {

// A NodeTable<std::string> and the std::unordered_map it must match, with
// the address each live record had when it was inserted.
struct Pair {
  NodeTable<std::string> table;
  std::unordered_map<uint64_t, std::string> model;
  std::unordered_map<uint64_t, const std::string*> address;

  void Insert(uint64_t id, const std::string& v) {
    auto [rec, fresh] = table.Insert(id, v);
    ASSERT_EQ(fresh, !model.contains(id)) << id;
    if (fresh) {
      model[id] = v;
      address[id] = rec;
    }
    ASSERT_EQ(*rec, model[id]) << id;
  }
  void Erase(uint64_t id) {
    ASSERT_EQ(table.Erase(id), model.erase(id) == 1) << id;
    address.erase(id);
  }
  void Find(uint64_t id) const {
    const std::string* rec = table.Find(id);
    auto it = model.find(id);
    ASSERT_EQ(rec != nullptr, it != model.end()) << id;
    if (rec != nullptr) {
      ASSERT_EQ(*rec, it->second) << id;
      // The record has not moved since it was inserted.
      ASSERT_EQ(rec, address.at(id)) << id;
    }
  }
  // Size, iteration and the slot view all list exactly the model.
  void Check() const {
    ASSERT_EQ(table.size(), model.size());
    std::unordered_map<uint64_t, std::string> seen;
    table.ForEach([&](uint64_t id, const std::string& v) {
      ASSERT_TRUE(seen.emplace(id, v).second) << id;
    });
    ASSERT_EQ(seen, model);
    size_t live = 0;
    for (uint32_t slot = 0; slot < table.slot_end(); ++slot) {
      const uint64_t id = table.IdAt(slot);
      if (id == 0) continue;
      ++live;
      ASSERT_EQ(table.SlotOf(id), slot) << id;
      ASSERT_EQ(table.At(slot), model.at(id)) << id;
    }
    ASSERT_EQ(live, model.size());
    for (const auto& [id, v] : model) ASSERT_NO_FATAL_FAILURE(Find(id));
  }
};

// The id pools: dense small ids, multiples of a large power of two (whose
// low bits are all equal), and ids just above 2^62 and just below 2^64.
std::vector<uint64_t> IdPool(int kind, size_t n) {
  std::vector<uint64_t> ids;
  for (uint64_t k = 1; k <= n; ++k) {
    switch (kind) {
      case 0:
        ids.push_back(k);
        break;
      case 1:
        ids.push_back(k << 40);
        break;
      case 2:
        ids.push_back((uint64_t{1} << 62) + k);
        break;
      default:
        ids.push_back(~uint64_t{0} - k);
        break;
    }
  }
  return ids;
}

TEST(NodeTableTest, MatchesUnorderedMapModel) {
  for (uint32_t seed = 1; seed <= 48; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937 rng(seed);
    // Seeds cycle through the id pools; every third seed erases as often
    // as it inserts, so free slots are reused and probe runs shift back.
    const std::vector<uint64_t> pool = IdPool(seed % 4, 300);
    const bool erase_heavy = seed % 3 == 0;
    auto pick = [&](size_t n) {
      return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
    };
    Pair p;
    for (int step = 0; step < 3000; ++step) {
      const uint64_t id = pick(50) == 0 ? 0 : pool[pick(pool.size())];
      switch (pick(erase_heavy ? 4 : 6)) {
        case 0:
        case 1:
          if (id == 0) break;  // 0 is reserved
          ASSERT_NO_FATAL_FAILURE(
              p.Insert(id, "v" + std::to_string(step)));
          break;
        case 2:
        case 3:
          ASSERT_NO_FATAL_FAILURE(p.Erase(id));
          break;
        default:
          ASSERT_NO_FATAL_FAILURE(p.Find(id));
          break;
      }
      if (step % 100 == 0) ASSERT_NO_FATAL_FAILURE(p.Check());
    }
    ASSERT_NO_FATAL_FAILURE(p.Check());
    // A copy matches the model as well, and is independent of it.
    NodeTable<std::string> copy = p.table;
    Pair q{std::move(copy), p.model, {}};
    for (const auto& [id, v] : q.model) q.address[id] = q.table.Find(id);
    ASSERT_NO_FATAL_FAILURE(q.Check());
    for (const auto& [id, v] : p.model) ASSERT_NO_FATAL_FAILURE(q.Erase(id));
    ASSERT_NO_FATAL_FAILURE(q.Check());
    ASSERT_NO_FATAL_FAILURE(p.Check());
  }
}

TEST(NodeTableTest, GrowsAcrossBlocksAndReusesFreeSlots) {
  for (int kind = 0; kind < 4; ++kind) {
    SCOPED_TRACE("pool " + std::to_string(kind));
    const std::vector<uint64_t> pool = IdPool(kind, 5000);
    Pair p;
    for (uint64_t id : pool) {
      ASSERT_NO_FATAL_FAILURE(p.Insert(id, std::to_string(id)));
    }
    ASSERT_NO_FATAL_FAILURE(p.Check());
    const uint32_t end = p.table.slot_end();
    ASSERT_EQ(end, pool.size());
    // Erase every other id, then insert as many again: the free slots are
    // reused and no slot is added.
    for (size_t i = 0; i < pool.size(); i += 2) {
      ASSERT_NO_FATAL_FAILURE(p.Erase(pool[i]));
    }
    ASSERT_NO_FATAL_FAILURE(p.Check());
    for (size_t i = 0; i < pool.size(); i += 2) {
      ASSERT_NO_FATAL_FAILURE(p.Insert(pool[i], "again"));
    }
    ASSERT_NO_FATAL_FAILURE(p.Check());
    EXPECT_EQ(p.table.slot_end(), end);
    // Emptied, the table still answers, and grows again.
    for (uint64_t id : pool) ASSERT_NO_FATAL_FAILURE(p.Erase(id));
    ASSERT_NO_FATAL_FAILURE(p.Check());
    EXPECT_EQ(p.table.size(), 0u);
    ASSERT_NO_FATAL_FAILURE(p.Insert(pool.back(), "last"));
    ASSERT_NO_FATAL_FAILURE(p.Check());
  }
}

TEST(NodeTableTest, MovedFromTableIsEmpty) {
  NodeTable<std::string> a;
  a.Insert(7, "seven");
  NodeTable<std::string> b = std::move(a);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(*b.Find(7), "seven");
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.Find(7), nullptr);
  EXPECT_TRUE(a.Insert(8, "eight").second);
  EXPECT_EQ(*a.Find(8), "eight");
}

}  // namespace
}  // namespace doem
