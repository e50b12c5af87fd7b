#ifndef DOEM_OEM_NODE_TABLE_H_
#define DOEM_OEM_NODE_TABLE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace doem {

/// A map from nonzero 64-bit ids to records of type T, stored flat: the
/// records live in slots, the slots in blocks, and an open-addressing
/// index maps each id to its slot. OemDatabase keeps its nodes in one.
///
/// - Address stability: a record never moves while its id stays in the
///   table; inserts allocate a new block instead of growing one.
/// - Blocks: the first holds 2 records and each next one twice as many, up
///   to 256 records; every later block holds 256. A small table stays
///   small and a large one wastes at most one block.
/// - Erased slots go on a free list that the next insert reuses; an
///   erased slot's record is reset to T{}.
/// - Slots: every record has a slot number below slot_end(). Walks over
///   the whole table (ForEach, a visited bit vector over slots) go in slot
///   order, which is insertion order until an erased slot is reused.
/// - Index: linear probing over a power-of-two array of 8-byte (tag,
///   slot) entries, at most 3/4 full. The tag is 32 bits of the id; a
///   matching tag is confirmed against the record's id. A mixing hash
///   spreads sparse ids (multiples of a large power of two, ids near
///   2^62). Erase shifts later entries back, so no tombstones accumulate.
template <typename T>
class NodeTable {
 public:
  /// The slot of an id that is not in the table.
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  NodeTable() = default;
  NodeTable(const NodeTable& o)
      : index_(o.index_),
        free_(o.free_),
        end_(o.end_),
        size_(o.size_),
        shift_(o.shift_) {
    blocks_.reserve(o.blocks_.size());
    for (size_t b = 0; b < o.blocks_.size(); ++b) {
      const uint32_t cap = BlockCapacity(b);
      blocks_.push_back(std::make_unique<Record[]>(cap));
      std::copy(o.blocks_[b].get(), o.blocks_[b].get() + cap,
                blocks_[b].get());
    }
  }
  NodeTable& operator=(const NodeTable& o) {
    if (this != &o) *this = NodeTable(o);
    return *this;
  }
  NodeTable(NodeTable&& o) noexcept { *this = std::move(o); }
  NodeTable& operator=(NodeTable&& o) noexcept {
    if (this == &o) return *this;
    blocks_ = std::exchange(o.blocks_, {});
    index_ = std::exchange(o.index_, {});
    free_ = std::exchange(o.free_, {});
    end_ = std::exchange(o.end_, 0);
    size_ = std::exchange(o.size_, 0);
    shift_ = std::exchange(o.shift_, 64);
    return *this;
  }

  size_t size() const { return size_; }

  /// One past the highest slot ever used: bit vectors over slots need
  /// this many bits.
  uint32_t slot_end() const { return end_; }

  /// The slot of `id`, or kNoSlot.
  uint32_t SlotOf(uint64_t id) const { return Probe(id).first; }

  /// The record of `id`, or null.
  T* Find(uint64_t id) {
    const Record* r = Probe(id).second;
    return r == nullptr ? nullptr : const_cast<T*>(&r->value);
  }
  const T* Find(uint64_t id) const {
    const Record* r = Probe(id).second;
    return r == nullptr ? nullptr : &r->value;
  }
  bool contains(uint64_t id) const { return Probe(id).second != nullptr; }

  /// The id and record in `slot`; id 0 marks a free slot.
  uint64_t IdAt(uint32_t slot) const { return RecordAt(slot).id; }
  T& At(uint32_t slot) { return RecordAt(slot).value; }
  const T& At(uint32_t slot) const { return RecordAt(slot).value; }

  /// Inserts `value` under `id`, which must be nonzero, unless `id` is
  /// present. Returns the record of `id` and whether it was inserted.
  std::pair<T*, bool> Insert(uint64_t id, T value) {
    if (4 * (size_ + 1) > 3 * index_.size()) Rehash();
    size_t i = Home(id);
    for (; index_[i].slot != kNoSlot; i = Next(i)) {
      const Entry& e = index_[i];
      if (e.tag == Tag(id) && RecordAt(e.slot).id == id) {
        return {&RecordAt(e.slot).value, false};
      }
    }
    uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = end_++;
      if (slot == BlockStart(blocks_.size())) {
        blocks_.push_back(
            std::make_unique<Record[]>(BlockCapacity(blocks_.size())));
      }
    }
    index_[i] = Entry{Tag(id), slot};
    ++size_;
    Record& r = RecordAt(slot);
    r.id = id;
    r.value = std::move(value);
    return {&r.value, true};
  }

  /// Erases `id`; returns whether it was present.
  bool Erase(uint64_t id) {
    const uint32_t slot = SlotOf(id);
    if (slot == kNoSlot) return false;
    size_t hole = Home(id);
    while (index_[hole].slot != slot) hole = Next(hole);
    // Backward-shift deletion: move each later entry of the probe run
    // into the hole unless that would put it before its home.
    const size_t mask = index_.size() - 1;
    for (size_t j = Next(hole); index_[j].slot != kNoSlot; j = Next(j)) {
      const size_t home = Home(RecordAt(index_[j].slot).id);
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        index_[hole] = index_[j];
        hole = j;
      }
    }
    index_[hole] = Entry{};
    Record& r = RecordAt(slot);
    r.id = 0;
    r.value = T{};
    free_.push_back(slot);
    --size_;
    return true;
  }

  /// Calls visit(id, record) for every record, in slot order.
  template <typename Visit>
  void ForEach(Visit&& visit) const {
    for (size_t b = 0; b < blocks_.size(); ++b) {
      const Record* rec = blocks_[b].get();
      const uint32_t n = std::min(BlockCapacity(b), end_ - BlockStart(b));
      for (uint32_t i = 0; i < n; ++i) {
        if (rec[i].id != 0) visit(rec[i].id, rec[i].value);
      }
    }
  }

 private:
  struct Record {
    uint64_t id = 0;
    T value{};
  };
  struct Entry {
    uint32_t tag = 0;
    uint32_t slot = kNoSlot;  // kNoSlot: the entry is empty
  };

  static constexpr uint32_t kFirstBlock = 2;
  static constexpr uint32_t kBlock = 256;
  // Blocks before the first full-size one, and the slots they hold.
  static constexpr size_t kRampBlocks = std::countr_zero(kBlock / kFirstBlock);
  static constexpr uint32_t kRampSlots = kBlock - kFirstBlock;

  static uint32_t BlockCapacity(size_t b) {
    return b < kRampBlocks ? kFirstBlock << b : kBlock;
  }
  static uint32_t BlockStart(size_t b) {
    return b < kRampBlocks
               ? kFirstBlock * ((1u << b) - 1)
               : kRampSlots + static_cast<uint32_t>(b - kRampBlocks) * kBlock;
  }
  Record& RecordAt(uint32_t slot) {
    return const_cast<Record&>(std::as_const(*this).RecordAt(slot));
  }
  const Record& RecordAt(uint32_t slot) const {
    if (slot < kRampSlots) {
      const size_t b = std::bit_width(slot / kFirstBlock + 1) - 1;
      return blocks_[b][slot - BlockStart(b)];
    }
    const uint32_t s = slot - kRampSlots;
    return blocks_[kRampBlocks + s / kBlock][s % kBlock];
  }

  /// The slot and record of `id`, or (kNoSlot, null). A matching tag is
  /// confirmed against the record's id.
  std::pair<uint32_t, const Record*> Probe(uint64_t id) const {
    if (id == 0 || index_.empty()) return {kNoSlot, nullptr};
    for (size_t i = Home(id);; i = Next(i)) {
      const Entry& e = index_[i];
      if (e.slot == kNoSlot) return {kNoSlot, nullptr};
      if (e.tag == Tag(id)) {
        const Record& r = RecordAt(e.slot);
        if (r.id == id) return {e.slot, &r};
      }
    }
  }

  static uint32_t Tag(uint64_t id) {
    return static_cast<uint32_t>(id ^ (id >> 32));
  }
  size_t Home(uint64_t id) const {
    id ^= id >> 32;
    return static_cast<size_t>((id * 0x9e3779b97f4a7c15ULL) >> shift_);
  }
  size_t Next(size_t i) const { return (i + 1) & (index_.size() - 1); }

  /// Doubles the index (8 entries at first) and re-enters every record,
  /// in slot order.
  void Rehash() {
    index_.assign(index_.empty() ? 8 : 2 * index_.size(), Entry{});
    shift_ = 64 - std::countr_zero(index_.size());
    for (uint32_t slot = 0; slot < end_; ++slot) {
      const uint64_t id = RecordAt(slot).id;
      if (id == 0) continue;
      size_t i = Home(id);
      while (index_[i].slot != kNoSlot) i = Next(i);
      index_[i] = Entry{Tag(id), slot};
    }
  }

  std::vector<std::unique_ptr<Record[]>> blocks_;
  std::vector<Entry> index_;
  std::vector<uint32_t> free_;
  uint32_t end_ = 0;
  size_t size_ = 0;
  // 64 minus log2 of the index size: Home keeps the hash's top bits.
  int shift_ = 64;
};

}  // namespace doem

#endif  // DOEM_OEM_NODE_TABLE_H_
