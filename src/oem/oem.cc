#include "oem/oem.h"

#include <algorithm>

#include "oem/change.h"

namespace doem {

std::string Arc::ToString() const {
  return "(" + std::to_string(parent) + ", " + label + ", " +
         std::to_string(child) + ")";
}

NodeId OemDatabase::NewNode(const Value& value) {
  // Skips used ids: live or erased. Deleted ids are never reused
  // (Section 2.2).
  for (;; ++next_id_) {
    if (erased_.contains(next_id_)) continue;
    if (nodes_.Insert(next_id_, Node{value, {}, 0}).second) return next_id_++;
  }
}

Status OemDatabase::SetRoot(NodeId root) {
  const Value* v = GetValue(root);
  if (v == nullptr) {
    return Status::NotFound("SetRoot: no node " + std::to_string(root));
  }
  if (!v->is_complex()) {
    return Status::InvalidArgument("SetRoot: root must be a complex object");
  }
  root_ = root;
  return Status::OK();
}

Status OemDatabase::CreNode(NodeId node, const Value& value) {
  if (node == kInvalidNode) {
    return Status::InvalidArgument("creNode: id 0 is reserved");
  }
  if (erased_.contains(node) ||
      !nodes_.Insert(node, Node{value, {}, 0}).second) {
    return Status::InvalidChange("creNode: identifier " +
                                 std::to_string(node) +
                                 " already used (ids are never reused)");
  }
  if (node >= next_id_) next_id_ = node + 1;
  return Status::OK();
}

Status OemDatabase::UpdNode(NodeId node, const Value& value) {
  Node* n = Find(*this, node);
  if (n == nullptr) {
    return Status::NotFound("updNode: no node " + std::to_string(node));
  }
  if (!n->out.empty()) {
    return Status::InvalidChange(
        "updNode: node " + std::to_string(node) +
        " has subobjects; remove them before updating its value");
  }
  n->value = value;
  return Status::OK();
}

Status OemDatabase::SetValueForce(NodeId node, const Value& value) {
  Node* n = Find(*this, node);
  if (n == nullptr) {
    return Status::NotFound("SetValueForce: no node " + std::to_string(node));
  }
  n->value = value;
  return Status::OK();
}

Status OemDatabase::EraseNodeForce(NodeId node) {
  const Node* n = Find(*this, node);
  if (n == nullptr) {
    return Status::NotFound("EraseNodeForce: no node " +
                            std::to_string(node));
  }
  if (!n->out.empty()) {
    return Status::InvalidArgument("EraseNodeForce: node " +
                                   std::to_string(node) + " has out-arcs");
  }
  nodes_.Erase(node);
  erased_.insert(node);
  return Status::OK();
}

Status OemDatabase::AddArc(NodeId parent, const std::string& label,
                           NodeId child) {
  const Value* pv = GetValue(parent);
  if (pv != nullptr && !pv->is_complex()) {
    return Status::InvalidChange("addArc: parent " + std::to_string(parent) +
                                 " is atomic");
  }
  return AddArcForce(parent, label, child);
}

Status OemDatabase::AddArcForce(NodeId parent, const std::string& label,
                                NodeId child) {
  Node* p = Find(*this, parent);
  if (p == nullptr) {
    return Status::NotFound("addArc: no parent node " +
                            std::to_string(parent));
  }
  Node* c = Find(*this, child);
  if (c == nullptr) {
    return Status::NotFound("addArc: no child node " + std::to_string(child));
  }
  if (FindArc(parent, *p, label, child) != nullptr) {
    return Status::InvalidChange("addArc: arc " +
                                 Arc{parent, label, child}.ToString() +
                                 " already exists");
  }
  p->out.push_back(OutArc{label, child, next_arc_seq_++});
  IndexAddedArc(parent, *p, p->out.size() - 1);
  ++c->in;
  return Status::OK();
}

Status OemDatabase::MoveOutArcs(NodeId from, NodeId to) {
  Node* src = Find(*this, from);
  Node* dst = Find(*this, to);
  if (src == nullptr || dst == nullptr) {
    return Status::NotFound("MoveOutArcs: no node " +
                            std::to_string(src == nullptr ? from : to));
  }
  if (from == to || !dst->value.is_complex() || !dst->out.empty()) {
    return Status::InvalidArgument(
        "MoveOutArcs: target " + std::to_string(to) +
        " must be another complex node without out-arcs");
  }
  if (src->out.size() > kWideOutDegree) {
    auto buckets = wide_.extract(from);
    buckets.key() = to;
    wide_.insert(std::move(buckets));
  }
  dst->out = std::move(src->out);
  src->out.clear();
  return Status::OK();
}

Status OemDatabase::SetOutArcs(NodeId parent, std::vector<OutArc> arcs) {
  Node* p = Find(*this, parent);
  if (p == nullptr) {
    return Status::NotFound("SetOutArcs: no parent node " +
                            std::to_string(parent));
  }
  if (!p->value.is_complex()) {
    return Status::InvalidChange("SetOutArcs: parent " +
                                 std::to_string(parent) + " is atomic");
  }
  if (!p->out.empty()) {
    return Status::InvalidArgument("SetOutArcs: parent " +
                                   std::to_string(parent) +
                                   " already has out-arcs");
  }
  const bool wide = arcs.size() > kWideOutDegree;
  Wide index;
  // Each child's in-degree is bumped as its arc passes the checks, and
  // dropped again if a later arc fails them.
  size_t counted = 0;
  auto fail = [&](Status s) {
    for (size_t i = 0; i < counted; ++i) --Find(*this, arcs[i].child)->in;
    return s;
  };
  for (OutArc& a : arcs) {
    Node* c = Find(*this, a.child);
    if (c == nullptr) {
      return fail(Status::NotFound("SetOutArcs: no child node " +
                                   std::to_string(a.child)));
    }
    a.seq = next_arc_seq_ + counted;
    bool repeats =
        wide ? !index.seq.emplace(std::pair(a.label, a.child), a.seq).second
             : std::find(arcs.begin(), arcs.begin() + counted, a) !=
                   arcs.begin() + counted;
    if (repeats) {
      return fail(Status::InvalidChange(
          "SetOutArcs: arc " + Arc{parent, a.label, a.child}.ToString() +
          " repeats"));
    }
    ++c->in;
    ++counted;
  }
  if (wide) {
    for (const OutArc& a : arcs) index.buckets[a.label].push_back(a.child);
    wide_.emplace(parent, std::move(index));
  }
  next_arc_seq_ += arcs.size();
  p->out = std::move(arcs);
  return Status::OK();
}

Status OemDatabase::RemArc(NodeId parent, const std::string& label,
                           NodeId child) {
  return RemArc(parent, label, child, nullptr);
}

Status OemDatabase::RemArc(NodeId parent, const std::string& label,
                           NodeId child, ArcSlot* slot) {
  auto missing = [&] {
    return Status::NotFound("remArc: no arc " +
                            Arc{parent, label, child}.ToString());
  };
  Node* p = Find(*this, parent);
  if (p == nullptr) return missing();
  auto out = std::find_if(p->out.begin(), p->out.end(), [&](const OutArc& a) {
    return a.child == child && a.label == label;
  });
  if (out == p->out.end()) return missing();
  if (slot != nullptr) {
    *slot = ArcSlot{out->seq, static_cast<size_t>(out - p->out.begin())};
  }
  p->out.erase(out);
  IndexRemovedArc(parent, *p, label, child);
  --Find(*this, child)->in;
  return Status::OK();
}

const uint64_t* OemDatabase::FindArc(NodeId node, const Node& n,
                                     std::string_view label,
                                     NodeId child) const {
  if (n.out.size() <= kWideOutDegree) {
    for (const OutArc& a : n.out) {
      if (a.child == child && a.label == label) return &a.seq;
    }
    return nullptr;
  }
  const auto& seqs = wide_.find(node)->second.seq;
  auto seq = seqs.find(LabelChild{label, child});
  return seq == seqs.end() ? nullptr : &seq->second;
}

bool OemDatabase::HasArc(NodeId parent, const std::string& label,
                         NodeId child) const {
  const Node* p = Find(*this, parent);
  return p != nullptr && FindArc(parent, *p, label, child) != nullptr;
}

std::optional<uint64_t> OemDatabase::ArcSeq(ArcRef arc) const {
  const Node* p = Find(*this, arc.parent);
  const uint64_t* seq =
      p == nullptr ? nullptr : FindArc(arc.parent, *p, arc.label, arc.child);
  return seq == nullptr ? std::nullopt : std::optional(*seq);
}

const Value* OemDatabase::GetValue(NodeId node) const {
  const Node* n = Find(*this, node);
  return n == nullptr ? nullptr : &n->value;
}

const std::vector<OutArc>& OemDatabase::OutArcs(NodeId node) const {
  static const std::vector<OutArc> kEmpty;
  const Node* n = Find(*this, node);
  return n == nullptr ? kEmpty : n->out;
}

const std::vector<NodeId>* OemDatabase::Bucket(NodeId node,
                                               const std::string& label,
                                               const Node** narrow) const {
  *narrow = nullptr;
  const Node* n = Find(*this, node);
  if (n == nullptr) return nullptr;
  if (n->out.size() <= kWideOutDegree) {
    *narrow = n;
    return nullptr;
  }
  const auto& buckets = wide_.find(node)->second.buckets;
  auto bucket = buckets.find(label);
  return bucket == buckets.end() ? nullptr : &bucket->second;
}

std::vector<NodeId> OemDatabase::Children(NodeId node,
                                          const std::string& label) const {
  const Node* narrow;
  const std::vector<NodeId>* bucket = Bucket(node, label, &narrow);
  if (bucket != nullptr) return *bucket;
  std::vector<NodeId> children;
  if (narrow != nullptr) {
    for (const OutArc& a : narrow->out) {
      if (a.label == label) children.push_back(a.child);
    }
  }
  return children;
}

const std::vector<NodeId>* OemDatabase::ChildBucket(
    NodeId node, const std::string& label) const {
  const Node* narrow;
  return Bucket(node, label, &narrow);
}

size_t OemDatabase::LabelChildCount(NodeId node,
                                    const std::string& label) const {
  const Node* narrow;
  const std::vector<NodeId>* bucket = Bucket(node, label, &narrow);
  if (bucket != nullptr) return bucket->size();
  if (narrow == nullptr) return 0;
  return static_cast<size_t>(
      std::count_if(narrow->out.begin(), narrow->out.end(),
                    [&](const OutArc& a) { return a.label == label; }));
}

size_t OemDatabase::InDegree(NodeId node) const {
  const Node* n = Find(*this, node);
  return n == nullptr ? 0 : n->in;
}

NodeId OemDatabase::Child(NodeId node, const std::string& label) const {
  const Node* narrow;
  const std::vector<NodeId>* bucket = Bucket(node, label, &narrow);
  if (bucket != nullptr) return bucket->front();
  if (narrow != nullptr) {
    for (const OutArc& a : narrow->out) {
      if (a.label == label) return a.child;
    }
  }
  return kInvalidNode;
}

void OemDatabase::IndexAddedArc(NodeId node, const Node& n, size_t pos) {
  if (n.out.size() <= kWideOutDegree) return;
  auto [entry, fresh] = wide_.try_emplace(node);
  Wide& wide = entry->second;
  if (fresh) {
    // The node just became wide.
    for (const OutArc& a : n.out) {
      wide.buckets[a.label].push_back(a.child);
      wide.seq.emplace(std::pair(a.label, a.child), a.seq);
    }
    return;
  }
  const OutArc& arc = n.out[pos];
  wide.seq.emplace(std::pair(arc.label, arc.child), arc.seq);
  std::vector<NodeId>& bucket = wide.buckets[arc.label];
  // The arc's place among its label's arcs; an appended arc is last.
  size_t rank = pos + 1 == n.out.size()
                    ? bucket.size()
                    : static_cast<size_t>(std::count_if(
                          n.out.begin(), n.out.begin() + pos,
                          [&](const OutArc& a) {
                            return a.label == arc.label;
                          }));
  bucket.insert(bucket.begin() + rank, arc.child);
}

void OemDatabase::IndexRemovedArc(NodeId node, const Node& n,
                                  const std::string& label, NodeId child) {
  if (n.out.size() < kWideOutDegree) return;  // it was narrow
  auto entry = wide_.find(node);
  if (n.out.size() == kWideOutDegree) {
    wide_.erase(entry);  // it was wide and is narrow now
    return;
  }
  Wide& wide = entry->second;
  wide.seq.erase(wide.seq.find(LabelChild{label, child}));
  auto bucket = wide.buckets.find(label);
  std::vector<NodeId>& children = bucket->second;
  children.erase(std::find(children.begin(), children.end(), child));
  if (children.empty()) wide.buckets.erase(bucket);
}

std::vector<NodeId> OemDatabase::NodeIds() const {
  std::vector<NodeId> ids;
  ids.reserve(nodes_.size());
  nodes_.ForEach([&](NodeId id, const Node&) { ids.push_back(id); });
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<Arc> OemDatabase::AllArcs() const {
  std::vector<Arc> arcs;
  for (NodeId p : NodeIds()) {
    for (const OutArc& a : OutArcs(p)) {
      arcs.push_back(Arc{p, a.label, a.child});
    }
  }
  return arcs;
}

std::vector<bool> OemDatabase::ReachableSlots(size_t* count,
                                              bool* sound) const {
  std::vector<bool> seen(nodes_.slot_end());
  *count = 0;
  *sound = true;
  const uint32_t root = nodes_.SlotOf(root_);
  if (root == nodes_.kNoSlot) return seen;
  // Expands the reached nodes in slot order, which is mostly parent
  // before child, so the records are read front to back. A child found
  // behind the sweep is expanded at once, from `behind`.
  std::vector<uint32_t> behind;
  uint32_t sweep = 0;
  auto expand = [&](uint32_t slot) {
    const Node& n = nodes_.At(slot);
    if (!n.out.empty() && !n.value.is_complex()) *sound = false;
    for (const OutArc& a : n.out) {
      const uint32_t c = nodes_.SlotOf(a.child);
      if (c == nodes_.kNoSlot) {
        *sound = false;
      } else if (!seen[c]) {
        seen[c] = true;
        ++*count;
        if (c < sweep) behind.push_back(c);
      }
    }
  };
  seen[root] = true;
  *count = 1;
  for (; sweep < seen.size(); ++sweep) {
    if (!seen[sweep]) continue;
    expand(sweep);
    while (!behind.empty()) {
      const uint32_t slot = behind.back();
      behind.pop_back();
      expand(slot);
    }
  }
  return seen;
}

std::vector<NodeId> OemDatabase::CollectGarbage() {
  size_t live_count;
  bool sound;
  const std::vector<bool> live = ReachableSlots(&live_count, &sound);
  std::vector<NodeId> removed;
  for (uint32_t slot = 0; slot < live.size(); ++slot) {
    const NodeId id = nodes_.IdAt(slot);
    if (id != kInvalidNode && !live[slot]) removed.push_back(id);
  }
  std::sort(removed.begin(), removed.end());
  EraseUnreachable(removed);
  return removed;
}

void OemDatabase::EraseUnreachable(const std::vector<NodeId>& dead) {
  for (NodeId id : dead) {
    const Node& n = *Find(*this, id);
    if (n.out.size() > kWideOutDegree) wide_.erase(id);
    for (const OutArc& a : n.out) {
      if (Node* c = Find(*this, a.child)) --c->in;
    }
    nodes_.Erase(id);
    erased_.insert(id);
  }
  // Arcs from live nodes to dead nodes cannot exist: a live parent would
  // make the target reachable. So only dead parents' arcs were removed.
}

void OemDatabase::RollBack(std::vector<Undo>* log, NodeId next_id,
                           uint64_t next_arc_seq) {
  for (auto undo = log->rbegin(); undo != log->rend(); ++undo) {
    const ChangeOp& op = *undo->op;
    const Arc& arc = op.arc;
    switch (op.kind) {
      case ChangeOp::Kind::kCreNode:
        // Every arc the set added at the node is undone by now.
        nodes_.Erase(op.node);
        break;
      case ChangeOp::Kind::kUpdNode:
        Find(*this, op.node)->value = std::move(undo->old_value);
        break;
      case ChangeOp::Kind::kAddArc: {
        // The arc is the newest of its parent's, so last in both lists.
        Node& p = *Find(*this, arc.parent);
        p.out.pop_back();
        IndexRemovedArc(arc.parent, p, arc.label, arc.child);
        --Find(*this, arc.child)->in;
        break;
      }
      case ChangeOp::Kind::kRemArc: {
        const ArcSlot& slot = undo->slot;
        Node& p = *Find(*this, arc.parent);
        p.out.insert(p.out.begin() + slot.out_pos,
                     OutArc{arc.label, arc.child, slot.seq});
        IndexAddedArc(arc.parent, p, slot.out_pos);
        ++Find(*this, arc.child)->in;
        break;
      }
    }
  }
  next_id_ = next_id;
  next_arc_seq_ = next_arc_seq;
}

std::vector<NodeId> OemDatabase::CollectGarbageBelow(
    const std::vector<Undo>& log) {
  // Only the set's created nodes and the children of its removed arcs can
  // have lost (or never had) reachability, and only nodes below them can
  // depend on it: every other node keeps its path from the root. D is the
  // out-closure of those candidates, in discovery order, with the number
  // of arcs each member receives from inside D.
  struct Member {
    size_t in_from_d = 0;
    bool live = false;
  };
  std::unordered_map<NodeId, Member> d;
  std::vector<NodeId> order;
  auto reach = [&](NodeId n) -> Member& {
    auto [it, fresh] = d.try_emplace(n);
    if (fresh) order.push_back(n);
    return it->second;
  };
  for (const Undo& undo : log) {
    if (undo.op->kind == ChangeOp::Kind::kCreNode) reach(undo.op->node);
    if (undo.op->kind == ChangeOp::Kind::kRemArc) reach(undo.op->arc.child);
  }
  if (order.empty()) return {};
  for (size_t i = 0; i < order.size(); ++i) {
    for (const OutArc& a : Find(*this, order[i])->out) {
      ++reach(a.child).in_from_d;
    }
  }
  // A member is live if it is the root, has a parent outside D (which is
  // live), or is reachable inside D from such a member.
  std::vector<NodeId> stack;
  for (NodeId n : order) {
    Member& m = d.at(n);
    if (n == root_ || Find(*this, n)->in > m.in_from_d) {
      m.live = true;
      stack.push_back(n);
    }
  }
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    for (const OutArc& a : Find(*this, n)->out) {
      Member& m = d.at(a.child);
      if (!m.live) {
        m.live = true;
        stack.push_back(a.child);
      }
    }
  }
  std::vector<NodeId> dead;
  for (NodeId n : order) {
    if (!d.at(n).live) dead.push_back(n);
  }
  std::sort(dead.begin(), dead.end());
  EraseUnreachable(dead);
  return dead;
}

Status OemDatabase::Validate() const {
  if (root_ == kInvalidNode || !HasNode(root_)) {
    return Status::InvalidArgument("Validate: database has no root");
  }
  if (!GetValue(root_)->is_complex()) {
    return Status::InvalidArgument("Validate: root is not complex");
  }
  // One walk from the root checks every node and arc of a well-formed
  // database; only a faulty one pays for a sweep that finds the fault the
  // checks report first.
  size_t live;
  bool sound;
  ReachableSlots(&live, &sound);
  if (sound && live == nodes_.size()) return Status::OK();
  Status bad;
  nodes_.ForEach([&](NodeId p, const Node& n) {
    if (!bad.ok()) return;
    if (!n.out.empty() && !n.value.is_complex()) {
      bad = Status::InvalidArgument("Validate: atomic node " +
                                    std::to_string(p) + " has out-arcs");
      return;
    }
    for (const OutArc& a : n.out) {
      if (!HasNode(a.child)) {
        bad = Status::InvalidArgument("Validate: arc to unknown node " +
                                      std::to_string(a.child));
        return;
      }
    }
  });
  if (!bad.ok()) return bad;
  return Status::InvalidArgument(
      "Validate: " + std::to_string(nodes_.size() - live) +
      " node(s) unreachable from the root");
}

bool OemDatabase::Equals(const OemDatabase& other) const {
  if (root_ != other.root_ || nodes_.size() != other.nodes_.size()) {
    return false;
  }
  // Neither side has duplicate arcs, so equal out-degrees and containment
  // make each node's out-arcs the same set.
  bool equal = true;
  nodes_.ForEach([&](NodeId id, const Node& n) {
    if (!equal) return;
    const Node* o = Find(other, id);
    equal = o != nullptr && o->value == n.value &&
            o->out.size() == n.out.size() &&
            std::all_of(n.out.begin(), n.out.end(), [&](const OutArc& a) {
              return other.FindArc(id, *o, a.label, a.child) != nullptr;
            });
  });
  return equal;
}

void OemDatabase::ReserveIdsBelow(NodeId floor) {
  if (floor > next_id_) next_id_ = floor;
}

}  // namespace doem
