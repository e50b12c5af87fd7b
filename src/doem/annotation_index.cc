#include "doem/annotation_index.h"

#include <algorithm>

namespace doem {

namespace {

// Canonical posting orders: total, so a fresh build and an incremental
// Apply produce identical vectors regardless of discovery order.
bool NodeEntryLess(const AnnotationIndex::NodeEntry& x,
                   const AnnotationIndex::NodeEntry& y) {
  if (x.time != y.time) return x.time < y.time;
  return x.node < y.node;
}

bool ArcEntryLess(const AnnotationIndex::ArcEntry& x,
                  const AnnotationIndex::ArcEntry& y) {
  if (x.time != y.time) return x.time < y.time;
  if (x.arc.parent != y.arc.parent) return x.arc.parent < y.arc.parent;
  if (x.arc.label != y.arc.label) return x.arc.label < y.arc.label;
  return x.arc.child < y.arc.child;
}

}  // namespace

AnnotationIndex::AnnotationIndex(const DoemDatabase& d) {
  const OemDatabase& g = d.graph();
  for (NodeId n : g.NodeIds()) {
    for (const Annotation& a : d.NodeAnnotations(n)) {
      if (a.kind == Annotation::Kind::kCre) {
        cre_.push_back(NodeEntry{a.time, n});
      } else if (a.kind == Annotation::Kind::kUpd) {
        upd_.push_back(NodeEntry{a.time, n});
      }
    }
  }
  for (const Arc& arc : g.AllArcs()) {
    for (const Annotation& a :
         d.ArcAnnotations(arc.parent, arc.label, arc.child)) {
      if (a.kind == Annotation::Kind::kAdd) {
        add_.push_back(ArcEntry{a.time, arc});
      } else if (a.kind == Annotation::Kind::kRem) {
        rem_.push_back(ArcEntry{a.time, arc});
      }
    }
  }
  std::sort(cre_.begin(), cre_.end(), NodeEntryLess);
  std::sort(upd_.begin(), upd_.end(), NodeEntryLess);
  std::sort(add_.begin(), add_.end(), ArcEntryLess);
  std::sort(rem_.begin(), rem_.end(), ArcEntryLess);
}

Status AnnotationIndex::Apply(const DoemDatabase& d, Timestamp t,
                              const ChangeSet& ops) {
  auto last_time = [](const auto& postings) {
    return postings.empty() ? Timestamp::NegativeInfinity()
                            : postings.back().time;
  };
  Timestamp newest = std::max({last_time(cre_), last_time(upd_),
                               last_time(add_), last_time(rem_)});
  if (t <= newest) {
    return Status::InvalidChange(
        "AnnotationIndex::Apply: timestamp " + t.ToString() +
        " not after newest indexed timestamp " + newest.ToString());
  }
  std::vector<NodeEntry> cre_batch, upd_batch;
  std::vector<ArcEntry> add_batch, rem_batch;
  const OemDatabase& g = d.graph();
  for (const ChangeOp& op : ops) {
    switch (op.kind) {
      case ChangeOp::Kind::kCreNode:
        // Skip stillborn nodes: pruned physically, never indexed.
        if (g.HasNode(op.node)) cre_batch.push_back({t, op.node});
        break;
      case ChangeOp::Kind::kUpdNode:
        if (g.HasNode(op.node)) upd_batch.push_back({t, op.node});
        break;
      case ChangeOp::Kind::kAddArc:
        if (g.HasArc(op.arc.parent, op.arc.label, op.arc.child)) {
          add_batch.push_back({t, op.arc});
        }
        break;
      case ChangeOp::Kind::kRemArc:
        if (g.HasArc(op.arc.parent, op.arc.label, op.arc.child)) {
          rem_batch.push_back({t, op.arc});
        }
        break;
    }
  }
  // All batch entries share timestamp t > everything indexed, so sorting
  // each batch and appending preserves global canonical order.
  std::sort(cre_batch.begin(), cre_batch.end(), NodeEntryLess);
  std::sort(upd_batch.begin(), upd_batch.end(), NodeEntryLess);
  std::sort(add_batch.begin(), add_batch.end(), ArcEntryLess);
  std::sort(rem_batch.begin(), rem_batch.end(), ArcEntryLess);
  cre_.insert(cre_.end(), cre_batch.begin(), cre_batch.end());
  upd_.insert(upd_.end(), upd_batch.begin(), upd_batch.end());
  add_.insert(add_.end(), add_batch.begin(), add_batch.end());
  rem_.insert(rem_.end(), rem_batch.begin(), rem_batch.end());
  applied_ops_ += cre_batch.size() + upd_batch.size() + add_batch.size() +
                  rem_batch.size();
  return Status::OK();
}

template <typename Entry>
std::vector<Entry> AnnotationIndex::Range(const std::vector<Entry>& postings,
                                          Timestamp from, Timestamp to) {
  auto lo = std::lower_bound(
      postings.begin(), postings.end(), from,
      [](const Entry& e, Timestamp t) { return e.time < t; });
  auto hi = std::upper_bound(
      postings.begin(), postings.end(), to,
      [](Timestamp t, const Entry& e) { return t < e.time; });
  if (lo >= hi) return {};  // empty or inverted range
  return std::vector<Entry>(lo, hi);
}

std::vector<AnnotationIndex::NodeEntry> AnnotationIndex::CreatedIn(
    Timestamp from, Timestamp to) const {
  return Range(cre_, from, to);
}

std::vector<AnnotationIndex::NodeEntry> AnnotationIndex::UpdatedIn(
    Timestamp from, Timestamp to) const {
  return Range(upd_, from, to);
}

std::vector<AnnotationIndex::ArcEntry> AnnotationIndex::AddedIn(
    Timestamp from, Timestamp to) const {
  return Range(add_, from, to);
}

std::vector<AnnotationIndex::ArcEntry> AnnotationIndex::RemovedIn(
    Timestamp from, Timestamp to) const {
  return Range(rem_, from, to);
}

std::vector<AnnotationIndex::NodeEntry> ScanCreatedIn(const DoemDatabase& d,
                                                      Timestamp from,
                                                      Timestamp to) {
  std::vector<AnnotationIndex::NodeEntry> out;
  for (NodeId n : d.graph().NodeIds()) {
    for (const Annotation& a : d.NodeAnnotations(n)) {
      if (a.kind == Annotation::Kind::kCre && a.time >= from &&
          a.time <= to) {
        out.push_back({a.time, n});
      }
    }
  }
  std::sort(out.begin(), out.end(), NodeEntryLess);
  return out;
}

std::vector<AnnotationIndex::ArcEntry> ScanAddedIn(const DoemDatabase& d,
                                                   Timestamp from,
                                                   Timestamp to) {
  std::vector<AnnotationIndex::ArcEntry> out;
  for (const Arc& arc : d.graph().AllArcs()) {
    for (const Annotation& a :
         d.ArcAnnotations(arc.parent, arc.label, arc.child)) {
      if (a.kind == Annotation::Kind::kAdd && a.time >= from &&
          a.time <= to) {
        out.push_back({a.time, arc});
      }
    }
  }
  std::sort(out.begin(), out.end(), ArcEntryLess);
  return out;
}

}  // namespace doem
