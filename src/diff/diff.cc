#include "diff/diff.h"

#include <algorithm>
#include <utility>
#include <unordered_map>
#include <unordered_set>

#include "oem/graph_compare.h"

namespace doem {

namespace {

// ------------------------------------------------------------- keyed mode

// One pass over `to`'s node records, with hash probes into `from`; arcs
// are probed only where a node's out-arc lists differ. Every op concerns
// a node of `to`: its creNode or updNode, or an arc it is the parent of.
// Arcs of `from` whose parent is gone are not removed: deletion is by
// unreachability, so removing the incoming arcs of the dead region (whose
// parents survive) suffices. Only the emitted ops are sorted, as small
// (node, out-arc position) keys before any op is built: cre and upd by
// node id, then add and rem by parent id and position in that parent's
// out-arc list (in `to` for add, in `from` for rem).
Result<ChangeSet> KeyedDiff(const OemDatabase& from, const OemDatabase& to) {
  using Key = std::pair<NodeId, size_t>;
  std::vector<NodeId> values;
  std::vector<Key> adds, rems;
  to.ForEachNode([&](NodeId n, const Value& tv,
                     const std::vector<OutArc>& out) {
    const Value* fv = from.GetValue(n);
    if (fv == nullptr || !(*fv == tv)) values.push_back(n);
    const std::vector<OutArc>& fout = from.OutArcs(n);
    if (fout == out) return;
    for (size_t i = 0; i < out.size(); ++i) {
      if (!from.HasArc(n, out[i].label, out[i].child)) adds.emplace_back(n, i);
    }
    for (size_t i = 0; i < fout.size(); ++i) {
      if (!to.HasArc(n, fout[i].label, fout[i].child)) rems.emplace_back(n, i);
    }
  });
  std::sort(values.begin(), values.end());
  std::sort(adds.begin(), adds.end());
  std::sort(rems.begin(), rems.end());
  ChangeSet ops;
  ops.reserve(values.size() + adds.size() + rems.size());
  for (NodeId n : values) {
    const Value& tv = *to.GetValue(n);
    ops.push_back(from.HasNode(n) ? ChangeOp::UpdNode(n, tv)
                                  : ChangeOp::CreNode(n, tv));
  }
  for (const auto& [n, i] : adds) {
    const OutArc& a = to.OutArcs(n)[i];
    ops.push_back(ChangeOp::AddArc(n, a.label, a.child));
  }
  for (const auto& [n, i] : rems) {
    const OutArc& a = from.OutArcs(n)[i];
    ops.push_back(ChangeOp::RemArc(n, a.label, a.child));
  }
  return ops;
}

// -------------------------------------------------------- structural mode

class StructuralMatcher {
 public:
  StructuralMatcher(const OemDatabase& from, const OemDatabase& to)
      : from_(from), to_(to) {}

  // Computes a partial injective mapping from-node -> to-node, rooted at
  // the two roots.
  std::unordered_map<NodeId, NodeId> Match() {
    int rounds = static_cast<int>(
        std::min<size_t>(16, std::max(from_.node_count(), to_.node_count())));
    hf_ = RefinementHashes(from_, rounds);
    ht_ = RefinementHashes(to_, rounds);
    if (from_.root() != kInvalidNode && to_.root() != kInvalidNode) {
      MatchPair(from_.root(), to_.root());
    }
    return fwd_;
  }

 private:
  void MatchPair(NodeId a, NodeId b) {
    auto ita = fwd_.find(a);
    if (ita != fwd_.end()) return;  // already matched (shared node/cycle)
    if (rev_.contains(b)) return;
    fwd_[a] = b;
    rev_[b] = a;

    // Group children by label on both sides and pair within groups.
    std::unordered_map<std::string, std::vector<NodeId>> ca, cb;
    for (const OutArc& arc : from_.OutArcs(a)) {
      ca[arc.label].push_back(arc.child);
    }
    for (const OutArc& arc : to_.OutArcs(b)) {
      cb[arc.label].push_back(arc.child);
    }
    for (auto& [label, fc] : ca) {
      auto it = cb.find(label);
      if (it == cb.end()) continue;
      PairChildren(fc, it->second);
    }
  }

  // Pairs same-label child lists: exact signature matches first, then
  // same-value atomics / best-overlap complex nodes.
  void PairChildren(const std::vector<NodeId>& fc,
                    const std::vector<NodeId>& tc) {
    std::vector<NodeId> fleft, tleft;
    for (NodeId f : fc) {
      if (!fwd_.contains(f)) fleft.push_back(f);
    }
    std::unordered_set<NodeId> tused;
    for (NodeId t : tc) {
      if (rev_.contains(t)) tused.insert(t);
    }
    // Phase 1: exact refinement-hash matches (identical subtrees).
    for (NodeId f : fleft) {
      for (NodeId t : tc) {
        if (tused.contains(t) || rev_.contains(t)) continue;
        if (hf_.at(f) == ht_.at(t)) {
          tused.insert(t);
          MatchPair(f, t);
          break;
        }
      }
    }
    // Phase 2: remaining pairs by similarity score.
    for (NodeId f : fleft) {
      if (fwd_.contains(f)) continue;
      NodeId best = kInvalidNode;
      double best_score = 0;
      for (NodeId t : tc) {
        if (tused.contains(t) || rev_.contains(t)) continue;
        double s = Similarity(f, t);
        if (s > best_score) {
          best_score = s;
          best = t;
        }
      }
      // A minimum similarity avoids matching wholly unrelated nodes,
      // which would turn one update into a cascade of arc surgery.
      if (best != kInvalidNode && best_score >= 0.3) {
        tused.insert(best);
        MatchPair(f, best);
      }
    }
  }

  double Similarity(NodeId f, NodeId t) {
    const Value& fv = *from_.GetValue(f);
    const Value& tv = *to_.GetValue(t);
    if (fv.is_atomic() != tv.is_atomic()) return 0.1;
    if (fv.is_atomic()) return fv == tv ? 1.0 : 0.5;
    // Complex: overlap of (label, child-signature) multisets.
    std::unordered_map<uint64_t, int> sig;
    size_t fa = 0, ta = 0;
    for (const OutArc& a : from_.OutArcs(f)) {
      ++sig[Mix(a.label, hf_.at(a.child))];
      ++fa;
    }
    int common = 0;
    for (const OutArc& a : to_.OutArcs(t)) {
      auto it = sig.find(Mix(a.label, ht_.at(a.child)));
      if (it != sig.end() && it->second > 0) {
        --it->second;
        ++common;
      }
      ++ta;
    }
    if (fa == 0 && ta == 0) return 0.9;  // both empty complex objects
    return 0.3 + 0.7 * (2.0 * common / static_cast<double>(fa + ta));
  }

  static uint64_t Mix(const std::string& label, uint64_t h) {
    return std::hash<std::string>()(label) * 0x9e3779b97f4a7c15ull ^ h;
  }

  const OemDatabase& from_;
  const OemDatabase& to_;
  std::unordered_map<NodeId, uint64_t> hf_, ht_;
  std::unordered_map<NodeId, NodeId> fwd_, rev_;
};

// The ops against the matching, from one pass over each side's node
// records. As in keyed mode only the emitted ops are sorted: unmatched
// `to` ids (their order hands out the fresh ids), then add and rem by
// parent and out-arc position. Updates follow the matching's order.
Result<ChangeSet> StructuralDiff(const OemDatabase& from,
                                 const OemDatabase& to) {
  std::unordered_map<NodeId, NodeId> fwd = MatchStructure(from, to);
  std::unordered_map<NodeId, NodeId> rev;  // to -> from-space id
  for (const auto& [f, t] : fwd) rev[t] = f;

  // A `to` arc is kept only if both ends are matched and their
  // counterparts share it; an unmatched end gets a fresh id.
  std::vector<NodeId> unmatched;
  std::vector<std::pair<NodeId, size_t>> adds, rems;
  to.ForEachNode([&](NodeId t, const Value&, const std::vector<OutArc>& out) {
    auto p = rev.find(t);
    if (p == rev.end()) unmatched.push_back(t);
    for (size_t i = 0; i < out.size(); ++i) {
      auto c = rev.find(out[i].child);
      if (p == rev.end() || c == rev.end() ||
          !from.HasArc(p->second, out[i].label, c->second)) {
        adds.emplace_back(t, i);
      }
    }
  });
  // An unmatched `from` parent dies; deletion is by reachability.
  from.ForEachNode([&](NodeId f, const Value&,
                       const std::vector<OutArc>& out) {
    auto p = fwd.find(f);
    if (p == fwd.end()) return;
    for (size_t i = 0; i < out.size(); ++i) {
      auto c = fwd.find(out[i].child);
      if (c == fwd.end() || !to.HasArc(p->second, out[i].label, c->second)) {
        rems.emplace_back(f, i);
      }
    }
  });
  std::sort(unmatched.begin(), unmatched.end());
  std::sort(adds.begin(), adds.end());
  std::sort(rems.begin(), rems.end());

  ChangeSet ops;
  // Fresh ids for unmatched to-nodes, safely above both id spaces.
  NodeId next_fresh = std::max(from.PeekNextId(), to.PeekNextId());
  for (NodeId t : unmatched) {
    rev[t] = next_fresh;
    ops.push_back(ChangeOp::CreNode(next_fresh++, *to.GetValue(t)));
  }
  for (const auto& [f, t] : fwd) {
    if (!(*from.GetValue(f) == *to.GetValue(t))) {
      ops.push_back(ChangeOp::UpdNode(f, *to.GetValue(t)));
    }
  }
  for (const auto& [t, i] : adds) {
    const OutArc& a = to.OutArcs(t)[i];
    ops.push_back(ChangeOp::AddArc(rev.at(t), a.label, rev.at(a.child)));
  }
  for (const auto& [f, i] : rems) {
    const OutArc& a = from.OutArcs(f)[i];
    ops.push_back(ChangeOp::RemArc(f, a.label, a.child));
  }
  return ops;
}

// The O(1) part of Validate(): `db` has a complex root.
Status CheckRoot(const OemDatabase& db, const char* side) {
  const Value* root = db.GetValue(db.root());
  if (root == nullptr) {
    return Status::InvalidArgument(std::string("DiffSnapshots: ") + side +
                                   " has no root");
  }
  if (!root->is_complex()) {
    return Status::InvalidArgument(std::string("DiffSnapshots: ") + side +
                                   " root is not complex");
  }
  return Status::OK();
}

}  // namespace

std::unordered_map<NodeId, NodeId> MatchStructure(const OemDatabase& from,
                                                  const OemDatabase& to) {
  return StructuralMatcher(from, to).Match();
}

Result<ChangeSet> DiffSnapshots(const OemDatabase& from,
                                const OemDatabase& to, DiffMode mode) {
  DOEM_RETURN_IF_ERROR(CheckRoot(from, "from"));
  DOEM_RETURN_IF_ERROR(CheckRoot(to, "to"));
  Result<ChangeSet> ops = mode == DiffMode::kKeyed ? KeyedDiff(from, to)
                                                   : StructuralDiff(from, to);
  if (!ops.ok()) return ops;
  DOEM_RETURN_IF_ERROR(CheckChangeSetConflicts(*ops));
  return ops;
}

DiffStats SummarizeChanges(const ChangeSet& ops) {
  DiffStats s;
  for (const ChangeOp& op : ops) {
    switch (op.kind) {
      case ChangeOp::Kind::kCreNode:
        ++s.creations;
        break;
      case ChangeOp::Kind::kUpdNode:
        ++s.updates;
        break;
      case ChangeOp::Kind::kAddArc:
        ++s.arc_additions;
        break;
      case ChangeOp::Kind::kRemArc:
        ++s.arc_removals;
        break;
    }
  }
  return s;
}

std::string DiffStats::ToString() const {
  return std::to_string(creations) + " creations, " +
         std::to_string(updates) + " updates, " +
         std::to_string(arc_additions) + " arc additions, " +
         std::to_string(arc_removals) + " arc removals";
}

}  // namespace doem
