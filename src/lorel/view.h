#ifndef DOEM_LOREL_VIEW_H_
#define DOEM_LOREL_VIEW_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "oem/oem.h"
#include "oem/timestamp.h"
#include "oem/value.h"

namespace doem {
namespace lorel {

/// An upd-annotation record as seen by the query engine: timestamp, value
/// before, value after (mirrors doem::UpdRecord without a dependency on
/// the doem library).
struct UpdEntry {
  Timestamp time;
  Value old_value;
  Value new_value;
};

/// The evaluator's window onto a database. Two concrete views exist:
///
///   OemView   — a plain OEM database (Lorel). Annotation accessors report
///               no annotations; running a Chorel query over it fails with
///               Unsupported.
///   DoemView  — (in chorel/) a DOEM database: plain steps see the
///               *current snapshot* (paper Section 4.2.1) and annotation
///               accessors expose cre/upd/add/rem, enabling direct Chorel
///               evaluation.
///
/// The same evaluator thereby implements both Lorel and the "extended
/// kernel" Chorel strategy of Section 5, and — pointed at the OEM
/// *encoding* of a DOEM database with translated queries — the layered
/// strategy as well.
class GraphView {
 public:
  virtual ~GraphView() = default;

  virtual NodeId root() const = 0;
  virtual bool HasNode(NodeId n) const = 0;

  /// The node's (current) value.
  virtual const Value& value(NodeId n) const = 0;

  /// Children reachable from n via live arcs labeled `label`.
  virtual std::vector<NodeId> Children(NodeId n,
                                       const std::string& label) const = 0;

  /// A stable, allocation-free reference to Children(n, label) when the
  /// view can provide one (null otherwise, and callers materialize via
  /// Children). The pointed-to vector must stay valid for the duration of
  /// a query. Views that filter children on the fly (DoemView's liveness
  /// check) cannot offer this and keep the default.
  virtual const std::vector<NodeId>* ChildrenRef(NodeId,
                                                 const std::string&) const {
    return nullptr;
  }

  /// All live out-arcs of n (for '%' and '#' wildcard traversal and
  /// result packaging).
  virtual std::vector<OutArc> LiveOutArcs(NodeId n) const = 0;

  /// A stable, copy-free reference to LiveOutArcs(n) when the view can
  /// provide one (null otherwise, and callers copy via LiveOutArcs). The
  /// pointed-to list must stay valid for the duration of a query. Views
  /// that filter arcs by liveness (DoemView) keep the default.
  virtual const std::vector<OutArc>* OutArcsRef(NodeId) const {
    return nullptr;
  }

  /// LiveOutArcs(n) without a copy where the view allows one: the list
  /// OutArcsRef(n) points to, or else LiveOutArcs(n) stored in `*scratch`.
  const std::vector<OutArc>& OutArcsOf(NodeId n,
                                       std::vector<OutArc>* scratch) const {
    if (const std::vector<OutArc>* arcs = OutArcsRef(n)) return *arcs;
    *scratch = LiveOutArcs(n);
    return *scratch;
  }

  /// Whether '#' wildcard traversal must skip '&'-prefixed labels. True
  /// for views over a Section 5.1 encoding, where &-arcs are bookkeeping,
  /// not data.
  virtual bool SkipEncodingLabelsInWildcard() const { return false; }

  /// An id strictly above every node id in this view's database; result
  /// packaging allocates its own nodes from here to avoid collisions.
  virtual NodeId IdFloor() const = 0;

  // ---- Chorel annotation hooks (default: none) -----------------------

  virtual bool SupportsAnnotations() const { return false; }
  virtual std::optional<Timestamp> CreTime(NodeId) const {
    return std::nullopt;
  }
  virtual std::vector<UpdEntry> UpdEntries(NodeId) const { return {}; }
  virtual std::vector<std::pair<Timestamp, NodeId>> AddAnnotated(
      NodeId, const std::string&) const {
    return {};
  }
  virtual std::vector<std::pair<Timestamp, NodeId>> RemAnnotated(
      NodeId, const std::string&) const {
    return {};
  }
  /// Any-label variants, backing annotation expressions on the '%'
  /// wildcard (<add at T>% — "some arc, whatever its label, was added").
  virtual std::vector<std::pair<Timestamp, NodeId>> AddAnnotatedAny(
      NodeId) const {
    return {};
  }
  virtual std::vector<std::pair<Timestamp, NodeId>> RemAnnotatedAny(
      NodeId) const {
    return {};
  }

  // ---- Annotation-index seeding (default: no index) -------------------
  //
  // Views backed by an annotation index answer "which of p's children
  // carry a cre/upd/add/rem annotation in [from, to]?" from time-sorted
  // postings instead of a scan of every child. The bytecode VM seeds a
  // step from these when the where clause range-bounds its time variable
  // (DESIGN.md §6c). Answers come in the order of the scan they replace
  // (Children, AddAnnotated, AddAnnotatedAny), so a seeded step yields
  // the scan's candidates minus those with no annotation in range, in the
  // same order. nullopt = no index; the caller scans. Both hooks add the
  // number of index postings they read to `*postings`.

  /// Which annotation postings a seeding hook or AnnotCountInRange reads.
  enum class AnnotStat { kCre, kUpd, kAdd, kRem };

  /// p's live `label`-children with a `kind` (kCre or kUpd) annotation in
  /// [from, to], each once, in Children(p, label) order.
  virtual std::optional<std::vector<NodeId>> AnnotatedChildren(
      NodeId, const std::string&, AnnotStat, Timestamp, Timestamp,
      size_t*) const {
    return std::nullopt;
  }
  /// (time, child) for each `kind` (kAdd or kRem) annotation in [from, to]
  /// on p's `label`-arcs, or on all of p's arcs when `label` is null, in
  /// AddAnnotated (AddAnnotatedAny) order.
  virtual std::optional<std::vector<std::pair<Timestamp, NodeId>>>
  AnnotatedArcs(NodeId, const std::string*, AnnotStat, Timestamp, Timestamp,
                size_t*) const {
    return std::nullopt;
  }

  // ---- Cardinality estimates (bytecode-VM cost model; DESIGN.md §6f) --
  //
  // The VM's step orderer ranks range definitions by estimated candidate
  // cardinality before choosing a loop nesting. Estimates are advisory:
  // kUnknownCardinality (or nullopt) makes the orderer keep the original
  // left-to-right position, so views without statistics lose nothing.

  static constexpr size_t kUnknownCardinality = static_cast<size_t>(-1);

  /// Approximate node count of the database (wildcard-step cardinality).
  virtual size_t TotalNodeEstimate() const { return kUnknownCardinality; }

  /// Total arcs labeled `label` anywhere in the graph — the estimate for
  /// a plain-label step whose source binding is not known statically.
  virtual size_t LabelArcEstimate(const std::string&) const {
    return kUnknownCardinality;
  }

  /// Exact `label`-child count of a specific node (root-sourced steps).
  virtual size_t ChildCountEstimate(NodeId, const std::string&) const {
    return kUnknownCardinality;
  }

  /// Number of index postings of `kind` in [from, to]; nullopt when the
  /// view has no annotation index.
  virtual std::optional<size_t> AnnotCountInRange(AnnotStat, Timestamp,
                                                  Timestamp) const {
    return std::nullopt;
  }

  // ---- Virtual annotations (Section 4.2.2; default: unsupported) -----

  virtual bool SupportsTimeTravel() const { return false; }
  virtual std::vector<NodeId> ChildrenAt(NodeId, const std::string&,
                                         Timestamp) const {
    return {};
  }
  virtual std::vector<NodeId> ChildrenAtAny(NodeId, Timestamp) const {
    return {};
  }
  virtual Value ValueAt(NodeId n, Timestamp) const { return value(n); }
};

/// A view over a plain OEM database.
class OemView : public GraphView {
 public:
  /// `amp_aware` marks the database as a Section 5.1 encoding, making '#'
  /// wildcards skip '&'-labeled bookkeeping arcs.
  explicit OemView(const OemDatabase& db, bool amp_aware = false)
      : db_(db), amp_aware_(amp_aware) {}

  NodeId root() const override { return db_.root(); }
  bool HasNode(NodeId n) const override { return db_.HasNode(n); }
  const Value& value(NodeId n) const override;
  std::vector<NodeId> Children(NodeId n,
                               const std::string& label) const override {
    return db_.Children(n, label);
  }
  const std::vector<NodeId>* ChildrenRef(
      NodeId n, const std::string& label) const override {
    // Every OEM arc is live. A wide node's label bucket is the child list;
    // any other node has none (null), and callers scan OutArcsRef(n).
    return db_.ChildBucket(n, label);
  }
  std::vector<OutArc> LiveOutArcs(NodeId n) const override {
    return db_.OutArcs(n);
  }
  const std::vector<OutArc>* OutArcsRef(NodeId n) const override {
    return &db_.OutArcs(n);
  }
  bool SkipEncodingLabelsInWildcard() const override { return amp_aware_; }
  size_t TotalNodeEstimate() const override { return db_.node_count(); }
  size_t LabelArcEstimate(const std::string& label) const override {
    return db_.ArcCountForLabel(label);
  }
  size_t ChildCountEstimate(NodeId n,
                            const std::string& label) const override {
    return db_.LabelChildCount(n, label);
  }
  NodeId IdFloor() const override { return db_.PeekNextId(); }

  const OemDatabase& db() const { return db_; }

 private:
  const OemDatabase& db_;
  bool amp_aware_;
};

}  // namespace lorel
}  // namespace doem

#endif  // DOEM_LOREL_VIEW_H_
