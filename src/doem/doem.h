#ifndef DOEM_DOEM_DOEM_H_
#define DOEM_DOEM_DOEM_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "doem/annotation.h"
#include "oem/change.h"
#include "oem/history.h"
#include "oem/oem.h"

namespace doem {

/// A (time, old value, new value) record for one upd annotation. The new
/// value is not stored in the DOEM model; it is derived per Section 4.2:
/// the old value of the temporally next upd annotation, or the current
/// value if none follows.
struct UpdRecord {
  Timestamp time;
  Value old_value;
  Value new_value;

  bool operator==(const UpdRecord&) const = default;
};

/// A DOEM database D = (O, fN, fA) (Definition 3.1): an OEM graph whose
/// nodes and arcs carry annotation sets encoding the history of basic
/// change operations.
///
/// Unlike a plain OemDatabase, the underlying graph is a *superset* of any
/// single state: removed arcs stay in the graph with a `rem` annotation,
/// and objects that became unreachable ("deleted") stay physically present.
/// Consequently the raw graph() may violate plain-OEM invariants — e.g. a
/// node updated to an atomic value can still have (removed) out-arcs.
/// All snapshot accessors apply liveness filtering.
///
/// Construction follows Section 3.1: start from a base snapshot
/// (FromSnapshot) and apply history steps (ApplyHistory / ApplyChangeSet).
/// The database keeps the current snapshot as a plain OemDatabase with the
/// same ids; each set U is applied to it under the OEM rules, then
/// recorded in the superset graph and its annotations.
class DoemDatabase {
 public:
  DoemDatabase() = default;

  /// Wraps a base snapshot O with empty annotation sets (D_0 in the
  /// paper's inductive construction). The snapshot must be well-formed
  /// (Validate() must pass). A minimal base is a single complex root —
  /// this is what the QSS uses as its "empty" result database, so that
  /// reachability-based deletion has an anchor.
  static Result<DoemDatabase> FromSnapshot(OemDatabase base);

  /// Builds D(O, H): FromSnapshot(O) then ApplyHistory(H).
  static Result<DoemDatabase> Build(OemDatabase base, const OemHistory& h);

  /// Assembles a DOEM database directly from an annotated graph — the
  /// decoder's entry point (Section 5.1), also usable to construct
  /// *infeasible* databases for testing IsFeasible. `graph` is the raw
  /// superset graph; `arc_annots` entries must reference arcs present in
  /// it. Annotation lists must be time-ordered. The current snapshot is
  /// the graph minus its removed arcs and what they left unreachable.
  static Result<DoemDatabase> FromParts(
      OemDatabase graph,
      std::unordered_map<NodeId, AnnotationList> node_annots,
      std::vector<std::pair<Arc, AnnotationList>> arc_annots);

  // ---- Mutation (Section 3.1) ----------------------------------------

  /// Applies the set U at time t, attaching annotations. Transactional:
  /// on error the database is unchanged. t must exceed every timestamp
  /// already present. U is applied to the current snapshot by the OEM
  /// module's ApplyChangeSet (Definition 2.2), so an error has that
  /// module's kind: an op on a deleted object, or a remArc of an arc that
  /// is not live, is kNotFound, because neither exists in the current
  /// snapshot. Nodes U creates that end up unreachable ("stillborn") are
  /// erased from graph() with their arcs; other unreachable nodes stay in
  /// it as deleted.
  Status ApplyChangeSet(Timestamp t, const ChangeSet& ops);

  /// Makes the current snapshot the new original, then applies the set U
  /// at time t as ApplyChangeSet does, so the history keeps one step: the
  /// QSS two-snapshot retention (paper Section 6.1). Ids of objects
  /// deleted before the current snapshot may be created again; the id
  /// floor stays. Transactional: U is checked against the current snapshot
  /// before the old history is dropped, so on error the database is
  /// unchanged. Costs O(annotations + deleted objects + |U|): after a
  /// previous RebaseAndApply, O(previous step + |U|), not O(graph).
  Status RebaseAndApply(Timestamp t, const ChangeSet& ops);

  /// Applies all steps of `h` in order.
  Status ApplyHistory(const OemHistory& h);

  // ---- Raw annotated graph --------------------------------------------

  /// The full annotated graph, including removed arcs and deleted nodes.
  const OemDatabase& graph() const { return graph_; }
  /// Raises the id allocators of graph() and the current snapshot to at
  /// least `floor`, so ids of nodes RebaseAndApply dropped are not handed
  /// out by NewNode again. Recovery restores the position a checkpoint
  /// recorded with it.
  void ReserveIdsBelow(NodeId floor) {
    graph_.ReserveIdsBelow(floor);
    current_.ReserveIdsBelow(floor);
  }
  NodeId root() const { return graph_.root(); }

  /// fN(n): annotations on node n (time-ordered). Empty if none.
  const AnnotationList& NodeAnnotations(NodeId n) const;
  /// fA(p,l,c): annotations on the arc (time-ordered). Empty if none.
  const AnnotationList& ArcAnnotations(NodeId p, const std::string& l,
                                       NodeId c) const;

  // ---- Liveness & time travel ------------------------------------------

  /// The node's value at time t (Section 3.2, step 1).
  Value ValueAt(NodeId n, Timestamp t) const;
  /// The node's current value, v(n).
  const Value& CurrentValue(NodeId n) const;

  /// Whether the arc existed at time t: the latest annotation at or
  /// before t is an add; or there is no such annotation and the arc is
  /// original (no annotations, or earliest is rem). Section 3.2, step 2 —
  /// with the refinement that arcs first added *after* t did not exist
  /// at t.
  bool ArcLiveAt(NodeId p, const std::string& l, NodeId c,
                 Timestamp t) const;
  bool ArcCurrentlyLive(NodeId p, const std::string& l, NodeId c) const {
    return ArcLiveAt(p, l, c, Timestamp::PositiveInfinity());
  }

  /// Out-arcs of n that existed at time t / exist now.
  std::vector<OutArc> ArcsLiveAt(NodeId n, Timestamp t) const;
  std::vector<OutArc> LiveArcs(NodeId n) const {
    return ArcsLiveAt(n, Timestamp::PositiveInfinity());
  }

  /// True if the object was deleted (became unreachable at some change-set
  /// boundary): it is in graph() but not in the current snapshot. Deleted
  /// objects no longer participate in history (Section 2.2).
  bool IsDeleted(NodeId n) const {
    return graph_.HasNode(n) && !current_.HasNode(n);
  }

  // ---- Snapshots (Section 3.2) ----------------------------------------

  /// O_t(D): the snapshot at time t, with original node identifiers.
  OemDatabase SnapshotAt(Timestamp t) const;
  /// O_0(D): the original snapshot.
  OemDatabase OriginalSnapshot() const {
    return SnapshotAt(Timestamp::NegativeInfinity());
  }
  /// The current snapshot, kept up to date by ApplyChangeSet. Lists arcs
  /// in the order SnapshotAt(+inf) does, and shares graph()'s id
  /// allocator position.
  const OemDatabase& CurrentSnapshot() const { return current_; }

  // ---- History extraction & feasibility (Section 3.2) ------------------

  /// All timestamps occurring in annotations, sorted ascending.
  std::vector<Timestamp> AllTimestamps() const;

  /// H(D): the encoded history, restricted to the steps in the window
  /// (after, through]; by default the whole history. One pass over the
  /// nodes and arcs, O(N + A + ops in the window) plus a sort of those ops.
  /// Each step lists node ops by ascending id, then arc ops in AllArcs
  /// order. A change at time -inf belongs to OriginalSnapshot().
  OemHistory ExtractHistory(
      Timestamp after = Timestamp::NegativeInfinity(),
      Timestamp through = Timestamp::PositiveInfinity()) const;

  /// Whether D is feasible: D(O_0(D), H(D)) == D. Every database built via
  /// FromSnapshot/ApplyHistory is feasible; hand-assembled annotation sets
  /// may not be.
  bool IsFeasible() const;

  /// Structural equality: same graph (ids, values, arcs, root) and same
  /// annotation sets, which determine the current snapshot.
  bool Equals(const DoemDatabase& other) const;

  // ---- Chorel support ---------------------------------------------------

  /// creFun(n): the cre timestamp, if any (at most one per node).
  std::optional<Timestamp> CreTime(NodeId n) const;

  /// updFun(n): (t, ov, nv) triples for each upd annotation on n.
  std::vector<UpdRecord> UpdRecords(NodeId n) const;

  /// addFun(n, l): (t, c) pairs such that arc (n, l, c) has an add(t)
  /// annotation — regardless of whether the arc is currently live.
  std::vector<std::pair<Timestamp, NodeId>> AddAnnotated(
      NodeId n, const std::string& label) const {
    return ArcEvents(n, label, Annotation::Kind::kAdd);
  }
  /// remFun(n, l): analogous for rem annotations.
  std::vector<std::pair<Timestamp, NodeId>> RemAnnotated(
      NodeId n, const std::string& label) const {
    return ArcEvents(n, label, Annotation::Kind::kRem);
  }

  /// A readable dump: the raw graph in OEM text, then every non-empty
  /// node and arc annotation set.
  std::string ToString() const;

 private:
  /// (t, c) for each `kind` annotation on an arc (n, label, c).
  std::vector<std::pair<Timestamp, NodeId>> ArcEvents(
      NodeId n, const std::string& label, Annotation::Kind kind) const;

  /// ApplyChangeSet, after making the current snapshot the new original
  /// if `rebase` (RebaseAndApply).
  Status Apply(Timestamp t, const ChangeSet& ops, bool rebase);
  /// Records one op of a set current_ has accepted in graph_ and the
  /// annotations, at time t.
  void ApplyOne(Timestamp t, const ChangeOp& op);

  OemDatabase graph_;
  std::unordered_map<NodeId, AnnotationList> node_annots_;
  ArcMap<AnnotationList> arc_annots_;
  // The current snapshot: graph_'s live part, with graph_'s ids, burned
  // ids and live-arc order.
  OemDatabase current_;
  // Largest timestamp applied so far (annotation timestamps are strictly
  // increasing across change sets).
  std::optional<Timestamp> last_time_;
};

}  // namespace doem

#endif  // DOEM_DOEM_DOEM_H_
