#include "oem/oem.h"

#include <algorithm>
#include <deque>

#include "oem/change.h"

namespace doem {

std::string Arc::ToString() const {
  return "(" + std::to_string(parent) + ", " + label + ", " +
         std::to_string(child) + ")";
}

NodeId OemDatabase::NewNode(const Value& value) {
  while (IsBurned(next_id_)) ++next_id_;
  NodeId id = next_id_++;
  nodes_.emplace(id, Node{value, {}, 0});
  return id;
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
  if (IsBurned(node)) {
    return Status::InvalidChange("creNode: identifier " +
                                 std::to_string(node) +
                                 " already used (ids are never reused)");
  }
  nodes_.emplace(node, Node{value, {}, 0});
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
  auto it = nodes_.find(node);
  if (it == nodes_.end()) {
    return Status::NotFound("EraseNodeForce: no node " +
                            std::to_string(node));
  }
  if (!it->second.out.empty()) {
    return Status::InvalidArgument("EraseNodeForce: node " +
                                   std::to_string(node) + " has out-arcs");
  }
  nodes_.erase(it);
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
  if (!arcs_.try_emplace(Arc{parent, label, child}, next_arc_seq_).second) {
    return Status::InvalidChange("addArc: arc " +
                                 Arc{parent, label, child}.ToString() +
                                 " already exists");
  }
  ++next_arc_seq_;
  p->out.push_back(OutArc{label, child});
  IndexAddedArc(parent, *p, p->out.size() - 1);
  ++label_counts_[label];
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
  // Re-key each arc in place: the node handle keeps its label and ArcSeq.
  for (const OutArc& a : src->out) {
    auto moved = arcs_.extract(arcs_.find(ArcRef{from, a.label, a.child}));
    moved.key().parent = to;
    arcs_.insert(std::move(moved));
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

Status OemDatabase::RemArc(NodeId parent, const std::string& label,
                           NodeId child) {
  return RemArc(parent, label, child, nullptr);
}

Status OemDatabase::RemArc(NodeId parent, const std::string& label,
                           NodeId child, ArcSlot* slot) {
  auto arc = arcs_.find(ArcRef{parent, label, child});
  if (arc == arcs_.end()) {
    return Status::NotFound("remArc: no arc " +
                            Arc{parent, label, child}.ToString());
  }
  uint64_t seq = arc->second;
  arcs_.erase(arc);
  Node& p = *Find(*this, parent);
  auto out = std::find_if(p.out.begin(), p.out.end(), [&](const OutArc& a) {
    return a.child == child && a.label == label;
  });
  if (slot != nullptr) {
    *slot = ArcSlot{seq, static_cast<size_t>(out - p.out.begin())};
  }
  p.out.erase(out);
  IndexRemovedArc(parent, p, label, child);
  auto lc = label_counts_.find(label);
  if (lc != label_counts_.end() && --lc->second == 0) label_counts_.erase(lc);
  --Find(*this, child)->in;
  return Status::OK();
}

bool OemDatabase::HasArc(NodeId parent, const std::string& label,
                         NodeId child) const {
  return arcs_.contains(ArcRef{parent, label, child});
}

std::optional<uint64_t> OemDatabase::ArcSeq(ArcRef arc) const {
  auto it = arcs_.find(arc);
  if (it == arcs_.end()) return std::nullopt;
  return it->second;
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
  const Buckets& buckets = wide_.find(node)->second;
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

size_t OemDatabase::ArcCountForLabel(const std::string& label) const {
  auto it = label_counts_.find(label);
  return it == label_counts_.end() ? 0 : it->second;
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
  Buckets& buckets = entry->second;
  if (fresh) {
    // The node just became wide.
    for (const OutArc& a : n.out) buckets[a.label].push_back(a.child);
    return;
  }
  const OutArc& arc = n.out[pos];
  std::vector<NodeId>& bucket = buckets[arc.label];
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
  auto bucket = entry->second.find(label);
  std::vector<NodeId>& children = bucket->second;
  children.erase(std::find(children.begin(), children.end(), child));
  if (children.empty()) entry->second.erase(bucket);
}

std::vector<NodeId> OemDatabase::NodeIds() const {
  std::vector<NodeId> ids;
  ids.reserve(nodes_.size());
  for (const auto& [id, n] : nodes_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<Arc> OemDatabase::AllArcs() const {
  std::vector<Arc> arcs;
  arcs.reserve(arcs_.size());
  for (NodeId p : NodeIds()) {
    for (const OutArc& a : OutArcs(p)) {
      arcs.push_back(Arc{p, a.label, a.child});
    }
  }
  return arcs;
}

std::unordered_set<NodeId> OemDatabase::ReachableFromRoot() const {
  std::unordered_set<NodeId> seen;
  if (root_ == kInvalidNode || !HasNode(root_)) return seen;
  std::deque<NodeId> queue{root_};
  seen.insert(root_);
  while (!queue.empty()) {
    NodeId n = queue.front();
    queue.pop_front();
    for (const OutArc& a : OutArcs(n)) {
      if (seen.insert(a.child).second) queue.push_back(a.child);
    }
  }
  return seen;
}

std::vector<NodeId> OemDatabase::CollectGarbage() {
  std::unordered_set<NodeId> live = ReachableFromRoot();
  std::vector<NodeId> removed;
  for (const auto& [id, n] : nodes_) {
    if (!live.contains(id)) removed.push_back(id);
  }
  std::sort(removed.begin(), removed.end());
  EraseUnreachable(removed);
  return removed;
}

void OemDatabase::EraseUnreachable(const std::vector<NodeId>& dead) {
  for (NodeId id : dead) {
    auto it = nodes_.find(id);
    if (it->second.out.size() > kWideOutDegree) wide_.erase(id);
    for (const OutArc& a : it->second.out) {
      arcs_.erase(arcs_.find(ArcRef{id, a.label, a.child}));
      auto lc = label_counts_.find(a.label);
      if (lc != label_counts_.end() && --lc->second == 0) {
        label_counts_.erase(lc);
      }
      if (Node* c = Find(*this, a.child)) --c->in;
    }
    nodes_.erase(it);
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
        nodes_.erase(op.node);
        break;
      case ChangeOp::Kind::kUpdNode:
        Find(*this, op.node)->value = std::move(undo->old_value);
        break;
      case ChangeOp::Kind::kAddArc: {
        // The arc is the newest of its parent's, so last in both lists.
        arcs_.erase(arc);
        Node& p = *Find(*this, arc.parent);
        p.out.pop_back();
        IndexRemovedArc(arc.parent, p, arc.label, arc.child);
        auto lc = label_counts_.find(arc.label);
        if (--lc->second == 0) label_counts_.erase(lc);
        --Find(*this, arc.child)->in;
        break;
      }
      case ChangeOp::Kind::kRemArc: {
        const ArcSlot& slot = undo->slot;
        arcs_.emplace(arc, slot.seq);
        Node& p = *Find(*this, arc.parent);
        p.out.insert(p.out.begin() + slot.out_pos, OutArc{arc.label, arc.child});
        IndexAddedArc(arc.parent, p, slot.out_pos);
        ++label_counts_[arc.label];
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
  for (const auto& [p, n] : nodes_) {
    if (!n.out.empty() && !n.value.is_complex()) {
      return Status::InvalidArgument("Validate: atomic node " +
                                     std::to_string(p) + " has out-arcs");
    }
    for (const OutArc& a : n.out) {
      if (!HasNode(a.child)) {
        return Status::InvalidArgument(
            "Validate: arc to unknown node " + std::to_string(a.child));
      }
    }
  }
  std::unordered_set<NodeId> live = ReachableFromRoot();
  if (live.size() != nodes_.size()) {
    return Status::InvalidArgument(
        "Validate: " + std::to_string(nodes_.size() - live.size()) +
        " node(s) unreachable from the root");
  }
  return Status::OK();
}

bool OemDatabase::Equals(const OemDatabase& other) const {
  if (root_ != other.root_ || nodes_.size() != other.nodes_.size() ||
      arcs_.size() != other.arcs_.size()) {
    return false;
  }
  for (const auto& [id, n] : nodes_) {
    const Value* ov = other.GetValue(id);
    if (ov == nullptr || !(*ov == n.value)) return false;
  }
  for (const auto& [a, seq] : arcs_) {
    if (!other.arcs_.contains(a)) return false;
  }
  return true;
}

void OemDatabase::ReserveIdsBelow(NodeId floor) {
  if (floor > next_id_) next_id_ = floor;
}

}  // namespace doem
