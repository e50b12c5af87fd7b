#include "oem/graph_compare.h"

#include <algorithm>
#include <string>
#include <vector>

namespace doem {

namespace {

uint64_t MixHash(uint64_t seed, uint64_t h) {
  seed ^= h + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
  return seed;
}

uint64_t HashString(const std::string& s) {
  return std::hash<std::string>()(s);
}

}  // namespace

std::unordered_map<NodeId, uint64_t> RefinementHashes(const OemDatabase& db,
                                                      int rounds) {
  std::unordered_map<NodeId, uint64_t> h;
  for (NodeId n : db.NodeIds()) {
    uint64_t base = db.GetValue(n)->Hash();
    if (n == db.root()) base = MixHash(base, 0x526f6f74ull);  // "Root"
    h[n] = base;
  }
  for (int round = 0; round < rounds; ++round) {
    std::unordered_map<NodeId, uint64_t> next;
    for (const auto& [n, hn] : h) {
      std::vector<uint64_t> child_sigs;
      for (const OutArc& a : db.OutArcs(n)) {
        child_sigs.push_back(MixHash(HashString(a.label), h.at(a.child)));
      }
      std::sort(child_sigs.begin(), child_sigs.end());
      uint64_t acc = MixHash(hn, 0xabcdefull);
      for (uint64_t cs : child_sigs) acc = MixHash(acc, cs);
      next[n] = acc;
    }
    h = std::move(next);
  }
  return h;
}

namespace {

// Attempts to extend the partial mapping with na -> nb, recursing into
// children. Returns false on any inconsistency.
bool Match(const OemDatabase& a, const OemDatabase& b,
           const std::unordered_map<NodeId, uint64_t>& ha,
           const std::unordered_map<NodeId, uint64_t>& hb, NodeId na,
           NodeId nb, std::unordered_map<NodeId, NodeId>* fwd,
           std::unordered_map<NodeId, NodeId>* rev) {
  auto it = fwd->find(na);
  if (it != fwd->end()) return it->second == nb;
  if (rev->contains(nb)) return false;
  if (!(*a.GetValue(na) == *b.GetValue(nb))) return false;
  (*fwd)[na] = nb;
  (*rev)[nb] = na;

  // Group children by label on both sides.
  std::unordered_map<std::string, std::vector<NodeId>> ca, cb;
  for (const OutArc& arc : a.OutArcs(na)) ca[arc.label].push_back(arc.child);
  for (const OutArc& arc : b.OutArcs(nb)) cb[arc.label].push_back(arc.child);
  if (ca.size() != cb.size()) return false;
  for (auto& [label, achildren] : ca) {
    auto bit = cb.find(label);
    if (bit == cb.end() || bit->second.size() != achildren.size()) {
      return false;
    }
    std::vector<NodeId>& bchildren = bit->second;
    // Pair children with equal refinement hashes. Sort both by
    // (hash, already-mapped-target) so forced pairs line up first.
    auto by_hash_a = [&](NodeId x, NodeId y) { return ha.at(x) < ha.at(y); };
    auto by_hash_b = [&](NodeId x, NodeId y) { return hb.at(x) < hb.at(y); };
    std::stable_sort(achildren.begin(), achildren.end(), by_hash_a);
    std::stable_sort(bchildren.begin(), bchildren.end(), by_hash_b);
    // Within equal-hash runs, honor pairs already forced by the mapping.
    for (size_t i = 0; i < achildren.size(); ++i) {
      NodeId want = kInvalidNode;
      auto fit = fwd->find(achildren[i]);
      if (fit != fwd->end()) want = fit->second;
      if (want != kInvalidNode) {
        auto pos = std::find(bchildren.begin() + i, bchildren.end(), want);
        if (pos == bchildren.end()) return false;
        std::swap(*pos, bchildren[i]);
      }
    }
    for (size_t i = 0; i < achildren.size(); ++i) {
      if (ha.at(achildren[i]) != hb.at(bchildren[i])) return false;
      if (!Match(a, b, ha, hb, achildren[i], bchildren[i], fwd, rev)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

bool FindIsomorphism(const OemDatabase& a, const OemDatabase& b,
                     std::unordered_map<NodeId, NodeId>* mapping) {
  if (a.node_count() != b.node_count() || a.arc_count() != b.arc_count()) {
    return false;
  }
  if (a.root() == kInvalidNode && b.root() == kInvalidNode) {
    if (mapping) mapping->clear();
    return a.node_count() == 0;
  }
  if (a.root() == kInvalidNode || b.root() == kInvalidNode) return false;

  const int rounds =
      std::min<int>(24, static_cast<int>(a.node_count()) + 1);
  auto ha = RefinementHashes(a, rounds);
  auto hb = RefinementHashes(b, rounds);

  std::unordered_map<NodeId, NodeId> fwd, rev;
  if (!Match(a, b, ha, hb, a.root(), b.root(), &fwd, &rev)) return false;

  // Every node must be matched (both databases are fully reachable from
  // their roots when well-formed; unreachable leftovers break equality).
  if (fwd.size() != a.node_count()) return false;

  // Verify arcs under the mapping.
  bool arcs_match = true;
  a.ForEachNode([&](NodeId p, const Value&, const std::vector<OutArc>& out) {
    for (const OutArc& arc : out) {
      arcs_match = arcs_match &&
                   b.HasArc(fwd.at(p), arc.label, fwd.at(arc.child));
    }
  });
  if (!arcs_match) return false;
  if (mapping) *mapping = std::move(fwd);
  return true;
}

bool Isomorphic(const OemDatabase& a, const OemDatabase& b) {
  return FindIsomorphism(a, b, nullptr);
}

}  // namespace doem
