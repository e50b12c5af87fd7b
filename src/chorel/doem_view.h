#ifndef DOEM_CHOREL_DOEM_VIEW_H_
#define DOEM_CHOREL_DOEM_VIEW_H_

#include <algorithm>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "doem/doem.h"
#include "lorel/view.h"

namespace doem {
namespace chorel {

/// A GraphView over a DOEM database, implementing the "extend the kernel"
/// strategy of Section 5: plain Lorel steps see the current snapshot
/// (Section 4.2.1's default), annotation accessors expose the DOEM
/// annotations to Chorel annotation expressions, and virtual <at T>
/// annotations time-travel via the snapshot rules of Section 3.2.
///
/// With `seed` set, the seeding hooks answer from the database's own
/// annotation index (DoemDatabase::annotation_index), letting the bytecode
/// VM enumerate candidates for time-bounded annotation expressions in
/// O(postings in range) instead of scanning every child (DESIGN.md §6c).
/// They order their answer by the graph's arc sequence numbers, which is
/// scan order.
class DoemView : public lorel::GraphView {
 public:
  explicit DoemView(const DoemDatabase& d, bool seed = false)
      : d_(d), seed_(seed) {}

  NodeId root() const override { return d_.root(); }
  bool HasNode(NodeId n) const override { return d_.graph().HasNode(n); }
  const Value& value(NodeId n) const override { return d_.CurrentValue(n); }

  std::vector<NodeId> Children(NodeId n,
                               const std::string& label) const override {
    // Label-keyed: probe the graph's per-label arc bucket, then filter by
    // liveness, instead of scanning every out-arc of n.
    std::vector<NodeId> out;
    for (NodeId c : d_.graph().Children(n, label)) {
      if (d_.ArcCurrentlyLive(n, label, c)) out.push_back(c);
    }
    return out;
  }

  std::vector<OutArc> LiveOutArcs(NodeId n) const override {
    return d_.LiveArcs(n);
  }

  NodeId IdFloor() const override { return d_.graph().PeekNextId(); }

  bool SupportsAnnotations() const override { return true; }

  std::optional<Timestamp> CreTime(NodeId n) const override {
    return d_.CreTime(n);
  }

  std::vector<lorel::UpdEntry> UpdEntries(NodeId n) const override {
    std::vector<lorel::UpdEntry> out;
    for (const UpdRecord& u : d_.UpdRecords(n)) {
      out.push_back(lorel::UpdEntry{u.time, u.old_value, u.new_value});
    }
    return out;
  }

  std::vector<std::pair<Timestamp, NodeId>> AddAnnotated(
      NodeId n, const std::string& label) const override {
    return d_.AddAnnotated(n, label);
  }

  std::vector<std::pair<Timestamp, NodeId>> RemAnnotated(
      NodeId n, const std::string& label) const override {
    return d_.RemAnnotated(n, label);
  }

  std::vector<std::pair<Timestamp, NodeId>> AddAnnotatedAny(
      NodeId n) const override {
    return AnyLabel(n, Annotation::Kind::kAdd);
  }

  std::vector<std::pair<Timestamp, NodeId>> RemAnnotatedAny(
      NodeId n) const override {
    return AnyLabel(n, Annotation::Kind::kRem);
  }

  std::optional<std::vector<NodeId>> AnnotatedChildren(
      NodeId p, const std::string& label, AnnotStat kind, Timestamp from,
      Timestamp to, size_t* postings) const override {
    if (!seed_) return std::nullopt;
    const AnnotationIndex& index = d_.annotation_index();
    auto entries = kind == AnnotStat::kCre ? index.CreatedIn(from, to)
                                           : index.UpdatedIn(from, to);
    *postings += entries.size();
    // (arc sequence number, child): ascending sequence is Children order.
    std::vector<std::pair<uint64_t, NodeId>> hits;
    for (const auto& e : entries) {
      auto seq = d_.graph().ArcSeq({p, label, e.node});
      if (seq && d_.ArcCurrentlyLive(p, label, e.node)) {
        hits.emplace_back(*seq, e.node);
      }
    }
    // A node updated more than once in range is one candidate.
    std::sort(hits.begin(), hits.end());
    hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
    std::vector<NodeId> out;
    out.reserve(hits.size());
    for (const auto& hit : hits) out.push_back(hit.second);
    return out;
  }

  std::optional<std::vector<std::pair<Timestamp, NodeId>>> AnnotatedArcs(
      NodeId p, const std::string* label, AnnotStat kind, Timestamp from,
      Timestamp to, size_t* postings) const override {
    if (!seed_) return std::nullopt;
    const AnnotationIndex& index = d_.annotation_index();
    auto entries = kind == AnnotStat::kAdd ? index.AddedIn(from, to)
                                           : index.RemovedIn(from, to);
    *postings += entries.size();
    // (arc sequence number, time, child): ascending sequence is the arc
    // order of AddAnnotated and AddAnnotatedAny, then time within an arc.
    std::vector<std::tuple<uint64_t, Timestamp, NodeId>> hits;
    for (const auto& e : entries) {
      if (e.arc.parent != p || (label != nullptr && e.arc.label != *label)) {
        continue;
      }
      if (auto seq = d_.graph().ArcSeq(e.arc)) {
        hits.emplace_back(*seq, e.time, e.arc.child);
      }
    }
    std::sort(hits.begin(), hits.end());
    std::vector<std::pair<Timestamp, NodeId>> out;
    out.reserve(hits.size());
    for (const auto& [seq, t, c] : hits) out.emplace_back(t, c);
    return out;
  }

  bool SupportsTimeTravel() const override { return true; }

  std::vector<NodeId> ChildrenAt(NodeId n, const std::string& label,
                                 Timestamp t) const override {
    std::vector<NodeId> out;
    for (const OutArc& a : d_.ArcsLiveAt(n, t)) {
      if (a.label == label) out.push_back(a.child);
    }
    return out;
  }

  std::vector<NodeId> ChildrenAtAny(NodeId n, Timestamp t) const override {
    std::vector<NodeId> out;
    for (const OutArc& a : d_.ArcsLiveAt(n, t)) out.push_back(a.child);
    return out;
  }

  Value ValueAt(NodeId n, Timestamp t) const override {
    return d_.ValueAt(n, t);
  }

  const DoemDatabase& doem() const { return d_; }

 private:
  std::vector<std::pair<Timestamp, NodeId>> AnyLabel(
      NodeId n, Annotation::Kind kind) const {
    std::vector<std::pair<Timestamp, NodeId>> out;
    for (const OutArc& a : d_.graph().OutArcs(n)) {
      for (const Annotation& ann : d_.ArcAnnotations(n, a.label, a.child)) {
        if (ann.kind == kind) out.emplace_back(ann.time, a.child);
      }
    }
    return out;
  }

  const DoemDatabase& d_;
  const bool seed_;
};

}  // namespace chorel
}  // namespace doem

#endif  // DOEM_CHOREL_DOEM_VIEW_H_
