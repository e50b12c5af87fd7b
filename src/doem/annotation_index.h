#ifndef DOEM_DOEM_ANNOTATION_INDEX_H_
#define DOEM_DOEM_ANNOTATION_INDEX_H_

#include <cstddef>
#include <span>
#include <vector>

#include "doem/annotation.h"
#include "oem/oem.h"
#include "oem/timestamp.h"

namespace doem {

class DoemDatabase;

/// An index over the annotations of a DOEM database, keyed by annotation
/// kind and timestamp — the paper's Section 7 future-work item
/// ("designing indexes on annotations (based on their types and
/// timestamps)").
///
/// The index answers "which nodes/arcs were created/updated/added/removed
/// in [from, to]?" by binary search over per-kind, time-sorted postings,
/// instead of scanning every node and arc of the graph. Chorel queries of
/// the QSS shape — "changes since the last poll" — are exactly such range
/// probes; bench_annotation_index quantifies the gain.
///
/// Every DoemDatabase keeps its own index exact
/// (DoemDatabase::annotation_index): each accepted change set appends its
/// postings, which land at the time-sorted tail because change-set
/// timestamps strictly increase. Postings are kept in canonical order —
/// (time, node) for node entries, (time, parent, label, child) for arc
/// entries — so the maintained index and a from-scratch build are
/// bit-for-bit identical.
class AnnotationIndex {
 public:
  struct NodeEntry {
    Timestamp time;
    NodeId node;

    bool operator==(const NodeEntry&) const = default;
  };
  struct ArcEntry {
    Timestamp time;
    Arc arc;

    bool operator==(const ArcEntry&) const = default;
  };

  AnnotationIndex() = default;
  /// Builds the index from scratch, in one pass over every node and arc
  /// of `d`: the reference the maintained index is checked against.
  explicit AnnotationIndex(const DoemDatabase& d);

  /// The postings in [from, to], time-ascending; views into the index,
  /// valid until its database next changes. Nodes with a cre annotation:
  std::span<const NodeEntry> CreatedIn(Timestamp from, Timestamp to) const;
  /// Nodes with an upd annotation; a node appears once per update.
  std::span<const NodeEntry> UpdatedIn(Timestamp from, Timestamp to) const;
  /// Arcs with an add / rem annotation.
  std::span<const ArcEntry> AddedIn(Timestamp from, Timestamp to) const;
  std::span<const ArcEntry> RemovedIn(Timestamp from, Timestamp to) const;

  size_t entry_count() const {
    return cre_.size() + upd_.size() + add_.size() + rem_.size();
  }

  // ---- Per-kind posting sizes (chorel.index_postings_* gauges) ---------

  size_t cre_count() const { return cre_.size(); }
  size_t upd_count() const { return upd_.size(); }
  size_t add_count() const { return add_.size(); }
  size_t rem_count() const { return rem_.size(); }

  bool operator==(const AnnotationIndex&) const = default;

 private:
  friend class DoemDatabase;

  /// Posting-list sizes, marking where a batch of appends starts.
  struct Mark {
    size_t cre = 0, upd = 0, add = 0, rem = 0;
  };
  Mark End() const {
    return {cre_.size(), upd_.size(), add_.size(), rem_.size()};
  }
  /// Appends the posting of a `kind` annotation at t on node n / on arc;
  /// SortFrom then puts the batch in canonical order.
  void AddNode(Annotation::Kind kind, Timestamp t, NodeId n) {
    (kind == Annotation::Kind::kCre ? cre_ : upd_).push_back({t, n});
  }
  void AddArc(Annotation::Kind kind, Timestamp t, const Arc& arc) {
    (kind == Annotation::Kind::kAdd ? add_ : rem_).push_back({t, arc});
  }
  /// Sorts the postings appended since `from` into canonical order. They
  /// must all be later than the postings before `from`.
  void SortFrom(const Mark& from);

  template <typename Entry>
  static std::span<const Entry> Range(const std::vector<Entry>& postings,
                                      Timestamp from, Timestamp to);

  std::vector<NodeEntry> cre_, upd_;
  std::vector<ArcEntry> add_, rem_;
};

/// The scan-based equivalents, for correctness tests and the ablation
/// benchmark: walk every node / arc and filter annotations by hand.
std::vector<AnnotationIndex::NodeEntry> ScanCreatedIn(const DoemDatabase& d,
                                                      Timestamp from,
                                                      Timestamp to);
std::vector<AnnotationIndex::ArcEntry> ScanAddedIn(const DoemDatabase& d,
                                                   Timestamp from,
                                                   Timestamp to);

}  // namespace doem

#endif  // DOEM_DOEM_ANNOTATION_INDEX_H_
