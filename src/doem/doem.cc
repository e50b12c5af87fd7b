#include "doem/doem.h"

#include <algorithm>
#include <deque>
#include <set>
#include <unordered_set>

#include "oem/oem_text.h"

namespace doem {

namespace {
const AnnotationList kNoAnnotations;

// The first annotation strictly after t in a time-ordered list.
AnnotationList::const_iterator FirstAfter(const AnnotationList& annots,
                                          Timestamp t) {
  return std::upper_bound(
      annots.begin(), annots.end(), t,
      [](Timestamp lhs, const Annotation& a) { return lhs < a.time; });
}
}  // namespace

Result<DoemDatabase> DoemDatabase::FromSnapshot(OemDatabase base) {
  Status s = base.Validate();
  if (!s.ok()) {
    return Status(s.code(), "DoemDatabase::FromSnapshot: " + s.message());
  }
  DoemDatabase d;
  d.graph_ = base;
  d.current_ = std::move(base);
  return d;
}

Result<DoemDatabase> DoemDatabase::Build(OemDatabase base,
                                         const OemHistory& h) {
  auto d = FromSnapshot(std::move(base));
  if (!d.ok()) return d.status();
  DOEM_RETURN_IF_ERROR(d->ApplyHistory(h));
  return std::move(d).value();
}

Result<DoemDatabase> DoemDatabase::FromParts(
    OemDatabase graph,
    std::unordered_map<NodeId, AnnotationList> node_annots,
    std::vector<std::pair<Arc, AnnotationList>> arc_annots) {
  DoemDatabase d;
  if (graph.root() == kInvalidNode) {
    return Status::InvalidArgument("FromParts: graph has no root");
  }
  auto check_ordered = [](const AnnotationList& annots) {
    for (size_t i = 1; i < annots.size(); ++i) {
      if (annots[i].time <= annots[i - 1].time) return false;
    }
    return true;
  };
  std::optional<Timestamp> last;
  for (const auto& [n, annots] : node_annots) {
    if (!graph.HasNode(n)) {
      return Status::InvalidArgument("FromParts: annotations on unknown "
                                     "node " +
                                     std::to_string(n));
    }
    if (!check_ordered(annots)) {
      return Status::InvalidArgument("FromParts: node annotations not "
                                     "time-ordered");
    }
    for (size_t i = 0; i < annots.size(); ++i) {
      const Annotation& a = annots[i];
      if (a.kind == Annotation::Kind::kAdd ||
          a.kind == Annotation::Kind::kRem) {
        return Status::InvalidArgument("FromParts: arc annotation on node");
      }
      if (a.kind == Annotation::Kind::kCre && i != 0) {
        return Status::InvalidArgument("FromParts: cre must be earliest");
      }
      if (!last || a.time > *last) last = a.time;
    }
  }
  for (const auto& [arc, annots] : arc_annots) {
    if (!graph.HasArc(arc.parent, arc.label, arc.child)) {
      return Status::InvalidArgument("FromParts: annotations on unknown "
                                     "arc " +
                                     arc.ToString());
    }
    if (!check_ordered(annots)) {
      return Status::InvalidArgument("FromParts: arc annotations not "
                                     "time-ordered");
    }
    for (const Annotation& a : annots) {
      if (a.kind == Annotation::Kind::kCre ||
          a.kind == Annotation::Kind::kUpd) {
        return Status::InvalidArgument("FromParts: node annotation on arc");
      }
      if (!last || a.time > *last) last = a.time;
    }
  }
  d.graph_ = std::move(graph);
  d.node_annots_ = std::move(node_annots);
  for (auto& [arc, annots] : arc_annots) {
    if (!annots.empty()) {
      d.arc_annots_[std::move(arc)] = std::move(annots);
    }
  }
  d.last_time_ = last;
  // The current snapshot is the graph minus its removed arcs and the
  // objects they left unreachable; it keeps the graph's arc order and
  // burned ids, and burns the deleted ones.
  d.current_ = d.graph_;
  for (const auto& [arc, annots] : d.arc_annots_) {
    if (annots.back().kind == Annotation::Kind::kRem) {
      d.current_.RemArc(arc.parent, arc.label, arc.child);
    }
  }
  d.current_.CollectGarbage();
  return d;
}

const AnnotationList& DoemDatabase::NodeAnnotations(NodeId n) const {
  auto it = node_annots_.find(n);
  return it == node_annots_.end() ? kNoAnnotations : it->second;
}

const AnnotationList& DoemDatabase::ArcAnnotations(NodeId p,
                                                   const std::string& l,
                                                   NodeId c) const {
  auto it = arc_annots_.find(ArcRef{p, l, c});
  return it == arc_annots_.end() ? kNoAnnotations : it->second;
}

Status DoemDatabase::ApplyChangeSet(Timestamp t, const ChangeSet& ops) {
  return Apply(t, ops, /*rebase=*/false);
}

Status DoemDatabase::RebaseAndApply(Timestamp t, const ChangeSet& ops) {
  return Apply(t, ops, /*rebase=*/true);
}

Status DoemDatabase::Apply(Timestamp t, const ChangeSet& ops, bool rebase) {
  if (last_time_.has_value() && t <= *last_time_) {
    return Status::InvalidChange(
        "change-set timestamps must be strictly increasing: " +
        t.ToString() + " after " + last_time_->ToString());
  }
  // A rebase drops the deleted objects, found before U changes current_:
  // each hangs below a removed arc, through deleted objects only (graph_
  // is reachable from the root, and a path's first deleted object is
  // entered by an arc that is not live). U may create their ids again.
  std::vector<NodeId> dead;
  std::unordered_set<NodeId> burned;
  if (rebase) {
    std::unordered_set<NodeId> seen;
    auto visit = [&](NodeId n) {
      if (!current_.HasNode(n) && seen.insert(n).second) dead.push_back(n);
    };
    for (const auto& [arc, annots] : arc_annots_) {
      if (annots.back().kind == Annotation::Kind::kRem) visit(arc.child);
    }
    for (size_t i = 0; i < dead.size(); ++i) {
      for (const OutArc& a : graph_.OutArcs(dead[i])) visit(a.child);
    }
    burned = current_.ForgetErasedIds();
  }
  // The OEM rules decide: current_ takes U whole or not at all, and
  // reports the objects U left unreachable.
  std::vector<NodeId> gone;
  Status s = doem::ApplyChangeSet(&current_, ops, &gone);
  if (!s.ok()) {
    current_.RestoreErasedIds(std::move(burned));
    return s;
  }
  if (rebase) {
    // graph_ becomes the kept snapshot, its live arcs in their order.
    for (const auto& [arc, annots] : arc_annots_) {
      if (annots.back().kind == Annotation::Kind::kRem) {
        graph_.RemArc(arc.parent, arc.label, arc.child);
      }
    }
    graph_.EraseUnreachable(dead);
    graph_.ForgetErasedIds();
    // New tables: clear() would sweep every bucket the largest step grew.
    node_annots_ = decltype(node_annots_)();
    arc_annots_ = decltype(arc_annots_)();
  }
  for (const ChangeOp& op : CanonicalOrder(ops)) ApplyOne(t, op);
  // Stillborn nodes: created by U and already unreachable. They never
  // existed in any snapshot, so they are erased physically rather than
  // kept as history (keeping them would make the Section 5.1 encoding
  // unreachable from its root), together with their incident arcs, which
  // only U can have added. Every other node in `gone` stays in graph_ as
  // deleted.
  std::unordered_set<NodeId> stillborn;
  for (NodeId n : gone) {
    if (CreTime(n) == t) stillborn.insert(n);
  }
  for (const ChangeOp& op : ops) {
    const Arc& a = op.arc;
    if (op.kind == ChangeOp::Kind::kAddArc &&
        (stillborn.contains(a.parent) || stillborn.contains(a.child))) {
      graph_.RemArc(a.parent, a.label, a.child);
      arc_annots_.erase(a);
    }
  }
  for (NodeId n : stillborn) {
    node_annots_.erase(n);
    graph_.EraseNodeForce(n);
  }
  last_time_ = t;
  return Status::OK();
}

Status DoemDatabase::ApplyHistory(const OemHistory& h) {
  for (const HistoryStep& step : h.steps()) {
    DOEM_RETURN_IF_ERROR(ApplyChangeSet(step.time, step.changes));
  }
  return Status::OK();
}

void DoemDatabase::ApplyOne(Timestamp t, const ChangeOp& op) {
  // current_ has accepted U, so none of these writes can fail: graph_
  // burns the same ids as current_ and holds every node current_ does.
  switch (op.kind) {
    case ChangeOp::Kind::kCreNode:
      graph_.CreNode(op.node, op.value);
      node_annots_[op.node].push_back(Annotation::Cre(t));
      return;
    case ChangeOp::Kind::kUpdNode:
      node_annots_[op.node].push_back(
          Annotation::Upd(t, CurrentValue(op.node)));
      graph_.SetValueForce(op.node, op.value);
      return;
    case ChangeOp::Kind::kAddArc: {
      // A re-added arc moves to the end of its parent's lists, where
      // current_ just appended it, so the live graph, its snapshots and a
      // decoded copy all list arcs in one order. Its annotations are keyed
      // by the arc and stay.
      const Arc& a = op.arc;
      if (graph_.HasArc(a.parent, a.label, a.child)) {
        graph_.RemArc(a.parent, a.label, a.child);
      }
      graph_.AddArcForce(a.parent, a.label, a.child);
      arc_annots_[a].push_back(Annotation::Add(t));
      return;
    }
    case ChangeOp::Kind::kRemArc:
      // The arc is not physically removed; it gets a rem annotation
      // (Section 3.1).
      arc_annots_[op.arc].push_back(Annotation::Rem(t));
      return;
  }
}

Value DoemDatabase::ValueAt(NodeId n, Timestamp t) const {
  const Value* current = graph_.GetValue(n);
  if (current == nullptr) return Value();
  // Section 3.2: if the last upd is at or before t, the value is v(n);
  // otherwise it is the old value of the earliest upd strictly after t.
  // Annotation lists are time-ordered, so the earliest annotation strictly
  // after t is found by binary search.
  const AnnotationList& annots = NodeAnnotations(n);
  for (auto it = FirstAfter(annots, t); it != annots.end(); ++it) {
    if (it->kind == Annotation::Kind::kUpd) return it->old_value;
  }
  return *current;
}

const Value& DoemDatabase::CurrentValue(NodeId n) const {
  static const Value kComplex;
  const Value* v = graph_.GetValue(n);
  return v == nullptr ? kComplex : *v;
}

bool DoemDatabase::ArcLiveAt(NodeId p, const std::string& l, NodeId c,
                             Timestamp t) const {
  if (!graph_.HasArc(p, l, c)) return false;
  const AnnotationList& annots = ArcAnnotations(p, l, c);
  // Time-ordered list: the latest annotation at or before t is the one
  // just before the first annotation strictly after t.
  auto it = FirstAfter(annots, t);
  if (it != annots.begin()) {
    return std::prev(it)->kind == Annotation::Kind::kAdd;
  }
  // No annotation at or before t: the arc existed at t iff it is an
  // original arc — no annotations at all, or the earliest annotation is a
  // removal (an arc whose first event is `add` did not exist before that
  // add).
  return annots.empty() || annots.front().kind == Annotation::Kind::kRem;
}

std::vector<OutArc> DoemDatabase::ArcsLiveAt(NodeId n, Timestamp t) const {
  std::vector<OutArc> out;
  for (const OutArc& a : graph_.OutArcs(n)) {
    if (ArcLiveAt(n, a.label, a.child, t)) out.push_back(a);
  }
  return out;
}

OemDatabase DoemDatabase::SnapshotAt(Timestamp t) const {
  OemDatabase snap;
  NodeId root = graph_.root();
  if (root == kInvalidNode) return snap;

  // Discover nodes reachable at time t, creating them in discovery order;
  // arcs are added once both ends exist. Arcs are traversed only out of
  // nodes that are complex at t; in a feasible database a node with live
  // out-arcs is necessarily complex, so this is defensive.
  std::unordered_set<NodeId> seen{root};
  std::deque<NodeId> queue{root};
  std::vector<Arc> arcs;
  while (!queue.empty()) {
    NodeId n = queue.front();
    queue.pop_front();
    Value v = ValueAt(n, t);
    const bool complex = v.is_complex();
    snap.CreNode(n, std::move(v));
    if (!complex) continue;
    for (OutArc& a : ArcsLiveAt(n, t)) {
      if (seen.insert(a.child).second) queue.push_back(a.child);
      arcs.push_back(Arc{n, std::move(a.label), a.child});
    }
  }
  for (const Arc& a : arcs) snap.AddArc(a.parent, a.label, a.child);
  // Preserve the id allocator position so snapshots can be extended
  // without clashing with ids the DOEM graph already burned.
  snap.ReserveIdsBelow(graph_.PeekNextId());
  Status s = snap.SetRoot(root);
  (void)s;
  return snap;
}

std::vector<Timestamp> DoemDatabase::AllTimestamps() const {
  std::set<Timestamp> times;
  for (const auto& [n, annots] : node_annots_) {
    for (const Annotation& a : annots) times.insert(a.time);
  }
  for (const auto& [key, annots] : arc_annots_) {
    for (const Annotation& a : annots) times.insert(a.time);
  }
  return {times.begin(), times.end()};
}

std::optional<Timestamp> DoemDatabase::CreTime(NodeId n) const {
  for (const Annotation& a : NodeAnnotations(n)) {
    if (a.kind == Annotation::Kind::kCre) return a.time;
  }
  return std::nullopt;
}

std::vector<UpdRecord> DoemDatabase::UpdRecords(NodeId n) const {
  std::vector<UpdRecord> out;
  const AnnotationList& annots = NodeAnnotations(n);
  for (size_t i = 0; i < annots.size(); ++i) {
    if (annots[i].kind != Annotation::Kind::kUpd) continue;
    // The new value is the old value of the next upd, or the current
    // value if this is the last update (Section 4.2).
    Value nv = CurrentValue(n);
    for (size_t j = i + 1; j < annots.size(); ++j) {
      if (annots[j].kind == Annotation::Kind::kUpd) {
        nv = annots[j].old_value;
        break;
      }
    }
    out.push_back(UpdRecord{annots[i].time, annots[i].old_value,
                            std::move(nv)});
  }
  return out;
}

std::vector<std::pair<Timestamp, NodeId>> DoemDatabase::ArcEvents(
    NodeId n, const std::string& label, Annotation::Kind kind) const {
  std::vector<std::pair<Timestamp, NodeId>> out;
  for (NodeId c : graph_.Children(n, label)) {
    for (const Annotation& ann : ArcAnnotations(n, label, c)) {
      if (ann.kind == kind) out.emplace_back(ann.time, c);
    }
  }
  return out;
}

OemHistory DoemDatabase::ExtractHistory(Timestamp after,
                                        Timestamp through) const {
  // One pass lists each op of the window with its time, node ops (by id)
  // before arc ops (AllArcs order); the stable sort by time keeps that
  // order within each step, which fixes the ArcSeq order of a rebuild.
  std::vector<std::pair<Timestamp, ChangeOp>> timed;
  auto is_upd = [](const Annotation& a) {
    return a.kind == Annotation::Kind::kUpd;
  };
  const std::vector<NodeId> ids = graph_.NodeIds();
  for (NodeId n : ids) {
    const AnnotationList& annots = NodeAnnotations(n);
    auto next_upd = annots.begin();
    for (auto it = FirstAfter(annots, after);
         it != annots.end() && it->time <= through; ++it) {
      // Value right after *it: the old value of the next upd annotation,
      // or the current value (Section 3.2, cases 2-3).
      if (next_upd <= it) next_upd = std::find_if(it + 1, annots.end(), is_upd);
      Value v_after =
          next_upd == annots.end() ? CurrentValue(n) : next_upd->old_value;
      if (it->kind == Annotation::Kind::kCre) {
        timed.emplace_back(it->time, ChangeOp::CreNode(n, std::move(v_after)));
      } else if (it->kind == Annotation::Kind::kUpd) {
        timed.emplace_back(it->time, ChangeOp::UpdNode(n, std::move(v_after)));
      }
    }
  }
  for (NodeId p : ids) {
    for (const OutArc& a : graph_.OutArcs(p)) {
      const AnnotationList& annots = ArcAnnotations(p, a.label, a.child);
      for (auto it = FirstAfter(annots, after);
           it != annots.end() && it->time <= through; ++it) {
        timed.emplace_back(it->time,
                           it->kind == Annotation::Kind::kAdd
                               ? ChangeOp::AddArc(p, a.label, a.child)
                               : ChangeOp::RemArc(p, a.label, a.child));
      }
    }
  }
  std::stable_sort(
      timed.begin(), timed.end(),
      [](const auto& x, const auto& y) { return x.first < y.first; });
  OemHistory history;
  for (size_t i = 0, j = 0; i < timed.size(); i = j) {
    ChangeSet ops;
    for (; j < timed.size() && timed[j].first == timed[i].first; ++j) {
      ops.push_back(std::move(timed[j].second));
    }
    Status s = history.Append(timed[i].first, std::move(ops));
    (void)s;  // Steps come sorted by time.
  }
  return history;
}

bool DoemDatabase::IsFeasible() const {
  OemDatabase original = OriginalSnapshot();
  if (!original.Validate().ok()) return false;
  auto rebuilt = FromSnapshot(std::move(original));
  if (!rebuilt.ok()) return false;
  if (!rebuilt->ApplyHistory(ExtractHistory()).ok()) return false;
  return Equals(*rebuilt);
}

bool DoemDatabase::Equals(const DoemDatabase& other) const {
  if (!graph_.Equals(other.graph_)) return false;
  auto nonempty = [](const auto& m) {
    size_t n = 0;
    for (const auto& [k, v] : m) {
      if (!v.empty()) ++n;
    }
    return n;
  };
  if (nonempty(node_annots_) != nonempty(other.node_annots_)) return false;
  for (const auto& [n, annots] : node_annots_) {
    if (annots.empty()) continue;
    if (other.NodeAnnotations(n) != annots) return false;
  }
  // Arc annotation lists are never empty (FromParts drops empty ones).
  return arc_annots_ == other.arc_annots_;
}

std::string DoemDatabase::ToString() const {
  std::string out = WriteOemText(graph_);
  out += "-- node annotations --\n";
  for (NodeId n : graph_.NodeIds()) {
    const AnnotationList& annots = NodeAnnotations(n);
    if (annots.empty()) continue;
    out += "&" + std::to_string(n) + ": " + AnnotationListToString(annots);
    if (IsDeleted(n)) out += " (deleted)";
    out += "\n";
  }
  out += "-- arc annotations --\n";
  for (const Arc& arc : graph_.AllArcs()) {
    const AnnotationList& annots =
        ArcAnnotations(arc.parent, arc.label, arc.child);
    if (annots.empty()) continue;
    out += arc.ToString() + ": " + AnnotationListToString(annots) + "\n";
  }
  return out;
}

}  // namespace doem
