#include "doem/annotation_index.h"

#include <algorithm>

#include "doem/doem.h"

namespace doem {

namespace {

// Canonical posting orders: total, so a fresh build and the DOEM's
// maintained postings are identical vectors whatever the discovery order.
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
      AddNode(a.kind, a.time, n);
    }
  }
  for (const Arc& arc : g.AllArcs()) {
    for (const Annotation& a :
         d.ArcAnnotations(arc.parent, arc.label, arc.child)) {
      AddArc(a.kind, a.time, arc);
    }
  }
  SortFrom({});
}

void AnnotationIndex::SortFrom(const Mark& from) {
  auto sort_tail = [](auto& postings, size_t start, auto less) {
    std::sort(postings.begin() + static_cast<ptrdiff_t>(start),
              postings.end(), less);
  };
  sort_tail(cre_, from.cre, NodeEntryLess);
  sort_tail(upd_, from.upd, NodeEntryLess);
  sort_tail(add_, from.add, ArcEntryLess);
  sort_tail(rem_, from.rem, ArcEntryLess);
}

template <typename Entry>
std::span<const Entry> AnnotationIndex::Range(
    const std::vector<Entry>& postings, Timestamp from, Timestamp to) {
  auto lo = std::lower_bound(
      postings.begin(), postings.end(), from,
      [](const Entry& e, Timestamp t) { return e.time < t; });
  auto hi = std::upper_bound(
      postings.begin(), postings.end(), to,
      [](Timestamp t, const Entry& e) { return t < e.time; });
  if (lo >= hi) return {};  // empty or inverted range
  return {lo, hi};
}

std::span<const AnnotationIndex::NodeEntry> AnnotationIndex::CreatedIn(
    Timestamp from, Timestamp to) const {
  return Range(cre_, from, to);
}

std::span<const AnnotationIndex::NodeEntry> AnnotationIndex::UpdatedIn(
    Timestamp from, Timestamp to) const {
  return Range(upd_, from, to);
}

std::span<const AnnotationIndex::ArcEntry> AnnotationIndex::AddedIn(
    Timestamp from, Timestamp to) const {
  return Range(add_, from, to);
}

std::span<const AnnotationIndex::ArcEntry> AnnotationIndex::RemovedIn(
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
