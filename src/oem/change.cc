#include "oem/change.h"

#include <algorithm>
#include <map>
#include <set>

namespace doem {

Status ChangeOp::ApplyTo(OemDatabase* db) const {
  switch (kind) {
    case Kind::kCreNode:
      return db->CreNode(node, value);
    case Kind::kUpdNode:
      return db->UpdNode(node, value);
    case Kind::kAddArc:
      return db->AddArc(arc.parent, arc.label, arc.child);
    case Kind::kRemArc:
      return db->RemArc(arc.parent, arc.label, arc.child);
  }
  return Status::Internal("unknown ChangeOp kind");
}

std::string ChangeOp::ToString() const {
  switch (kind) {
    case Kind::kCreNode:
      return "creNode(" + std::to_string(node) + ", " + value.ToString() +
             ")";
    case Kind::kUpdNode:
      return "updNode(" + std::to_string(node) + ", " + value.ToString() +
             ")";
    case Kind::kAddArc:
      return "addArc" + arc.ToString();
    case Kind::kRemArc:
      return "remArc" + arc.ToString();
  }
  return "?";
}

Status CheckChangeSetConflicts(const ChangeSet& ops) {
  std::set<NodeId> cre_nodes;
  std::set<NodeId> upd_nodes;
  std::map<std::tuple<NodeId, std::string, NodeId>, ChangeOp::Kind> arcs;
  for (const ChangeOp& op : ops) {
    switch (op.kind) {
      case ChangeOp::Kind::kCreNode:
        if (!cre_nodes.insert(op.node).second) {
          return Status::InvalidChange("two creNode operations on node " +
                                       std::to_string(op.node));
        }
        break;
      case ChangeOp::Kind::kUpdNode:
        if (!upd_nodes.insert(op.node).second) {
          return Status::InvalidChange("two updNode operations on node " +
                                       std::to_string(op.node));
        }
        break;
      case ChangeOp::Kind::kAddArc:
      case ChangeOp::Kind::kRemArc: {
        auto key = std::make_tuple(op.arc.parent, op.arc.label, op.arc.child);
        auto [it, inserted] = arcs.emplace(key, op.kind);
        if (!inserted) {
          if (it->second != op.kind) {
            return Status::InvalidChange(
                "addArc and remArc of the same arc " + op.arc.ToString() +
                " in one change set (forbidden by Definition 2.2)");
          }
          return Status::InvalidChange("duplicate operation on arc " +
                                       op.arc.ToString());
        }
        break;
      }
    }
  }
  for (NodeId n : cre_nodes) {
    if (upd_nodes.contains(n)) {
      return Status::InvalidChange(
          "creNode and updNode on node " + std::to_string(n) +
          " in one change set; fold the update into the creation value");
    }
  }
  return Status::OK();
}

ChangeSet CanonicalOrder(const ChangeSet& ops) {
  ChangeSet ordered;
  ordered.reserve(ops.size());
  for (ChangeOp::Kind phase :
       {ChangeOp::Kind::kCreNode, ChangeOp::Kind::kRemArc,
        ChangeOp::Kind::kUpdNode, ChangeOp::Kind::kAddArc}) {
    for (const ChangeOp& op : ops) {
      if (op.kind == phase) ordered.push_back(op);
    }
  }
  return ordered;
}

Status ApplyChangeSet(OemDatabase* db, const ChangeSet& ops,
                      std::vector<NodeId>* deleted) {
  DOEM_RETURN_IF_ERROR(CheckChangeSetConflicts(ops));
  const ChangeSet ordered = CanonicalOrder(ops);
  const NodeId next_id = db->next_id_;
  const uint64_t next_arc_seq = db->next_arc_seq_;
  std::vector<OemDatabase::Undo> log;
  log.reserve(ordered.size());
  for (const ChangeOp& op : ordered) {
    OemDatabase::Undo undo{&op, Value(), {}};
    Status s;
    if (op.kind == ChangeOp::Kind::kRemArc) {
      s = db->RemArc(op.arc.parent, op.arc.label, op.arc.child, &undo.slot);
    } else {
      const Value* old = op.kind == ChangeOp::Kind::kUpdNode
                             ? db->GetValue(op.node)
                             : nullptr;
      if (old != nullptr) undo.old_value = *old;
      s = op.ApplyTo(db);
    }
    if (!s.ok()) {
      db->RollBack(&log, next_id, next_arc_seq);
      return s;
    }
    log.push_back(std::move(undo));
  }
  std::vector<NodeId> removed = db->CollectGarbageBelow(log);
  if (deleted != nullptr) {
    deleted->insert(deleted->end(), removed.begin(), removed.end());
  }
  return Status::OK();
}

namespace {
// Deterministic sort key for multiset comparison.
bool OpLess(const ChangeOp& a, const ChangeOp& b) {
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.node != b.node) return a.node < b.node;
  if (a.arc.parent != b.arc.parent) return a.arc.parent < b.arc.parent;
  if (a.arc.label != b.arc.label) return a.arc.label < b.arc.label;
  if (a.arc.child != b.arc.child) return a.arc.child < b.arc.child;
  return a.value < b.value;
}
}  // namespace

bool ChangeSetEquals(const ChangeSet& a, const ChangeSet& b) {
  if (a.size() != b.size()) return false;
  ChangeSet sa = a, sb = b;
  std::sort(sa.begin(), sa.end(), OpLess);
  std::sort(sb.begin(), sb.end(), OpLess);
  return sa == sb;
}

std::string ChangeSetToString(const ChangeSet& ops) {
  std::string out = "{";
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i > 0) out += ", ";
    out += ops[i].ToString();
  }
  out += "}";
  return out;
}

}  // namespace doem
