#ifndef DOEM_DOEM_ANNOTATION_INDEX_H_
#define DOEM_DOEM_ANNOTATION_INDEX_H_

#include <vector>

#include "doem/doem.h"

namespace doem {

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
/// The index is a companion structure: build it from a DoemDatabase in
/// one pass, then keep it current with Apply(...) after each change set
/// (valid because change-set timestamps are strictly increasing, so new
/// annotations always append at the time-sorted tail). Postings are kept
/// in canonical order — (time, node) for node entries, (time, parent,
/// label, child) for arc entries — so a fresh build and an incrementally
/// maintained index are bit-for-bit identical.
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

  /// Builds the index in one pass over the database.
  explicit AnnotationIndex(const DoemDatabase& d);

  /// Incrementally appends the postings of one change set that was just
  /// applied to `d` at time `t` (i.e. call `d.ApplyChangeSet(t, ops)`
  /// first, then `index.Apply(d, t, ops)`). Ops whose node/arc is no
  /// longer physically present in `d` — stillborn nodes the apply erased
  /// and their incident arcs — are skipped, exactly as a fresh build over
  /// `d` would never see them. `t` must exceed every
  /// timestamp already indexed.
  Status Apply(const DoemDatabase& d, Timestamp t, const ChangeSet& ops);

  /// Nodes with a cre annotation in [from, to], time-ascending.
  std::vector<NodeEntry> CreatedIn(Timestamp from, Timestamp to) const;
  /// Nodes with an upd annotation in [from, to]; a node appears once per
  /// matching update.
  std::vector<NodeEntry> UpdatedIn(Timestamp from, Timestamp to) const;
  /// Arcs with an add / rem annotation in [from, to].
  std::vector<ArcEntry> AddedIn(Timestamp from, Timestamp to) const;
  std::vector<ArcEntry> RemovedIn(Timestamp from, Timestamp to) const;

  size_t entry_count() const {
    return cre_.size() + upd_.size() + add_.size() + rem_.size();
  }

  // ---- Per-kind posting sizes (chorel.index_postings_* gauges) ---------

  size_t cre_count() const { return cre_.size(); }
  size_t upd_count() const { return upd_.size(); }
  size_t add_count() const { return add_.size(); }
  size_t rem_count() const { return rem_.size(); }

  /// Postings appended by Apply since construction (stillborn-pruned ops
  /// excluded) — the incremental maintenance work done, for the
  /// observability layer (DESIGN.md §6d). A fresh build starts at 0.
  size_t applied_ops() const { return applied_ops_; }

  /// Exact posting equality — with canonical ordering this holds between
  /// a fresh build and an incrementally maintained index. Maintenance
  /// tallies (applied_ops) are bookkeeping, not index content, and are
  /// deliberately excluded.
  bool operator==(const AnnotationIndex& o) const {
    return cre_ == o.cre_ && upd_ == o.upd_ && add_ == o.add_ &&
           rem_ == o.rem_;
  }

 private:
  template <typename Entry>
  static std::vector<Entry> Range(const std::vector<Entry>& postings,
                                  Timestamp from, Timestamp to);

  std::vector<NodeEntry> cre_, upd_;
  std::vector<ArcEntry> add_, rem_;
  size_t applied_ops_ = 0;
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
