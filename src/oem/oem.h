#ifndef DOEM_OEM_OEM_H_
#define DOEM_OEM_OEM_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "oem/node_table.h"
#include "oem/value.h"

namespace doem {

struct ChangeOp;  // oem/change.h

/// Opaque object identifier. Identifiers of deleted objects are never
/// reused (paper Section 2.2). 0 is reserved as "invalid".
using NodeId = uint64_t;
constexpr NodeId kInvalidNode = 0;

/// A labeled outgoing arc (l, c) of some parent object: "the object with
/// identifier c is an l-labeled subobject of the parent". `seq` is its
/// ArcSeq; equality compares only (l, c), so out-arc lists of two
/// databases are equal when they list the same arcs in the same order.
struct OutArc {
  std::string label;
  NodeId child = kInvalidNode;
  uint64_t seq = 0;

  bool operator==(const OutArc& o) const {
    return child == o.child && label == o.label;
  }
};

/// An arc (p, l, c) with a borrowed label, for probing Arc-keyed tables
/// without copying the label.
struct ArcRef {
  NodeId parent;
  std::string_view label;
  NodeId child;

  bool operator==(const ArcRef& o) const = default;
};

/// A fully qualified arc (p, l, c), as in Definition 2.1.
struct Arc {
  NodeId parent = kInvalidNode;
  std::string label;
  NodeId child = kInvalidNode;

  bool operator==(const Arc& o) const = default;
  operator ArcRef() const { return {parent, label, child}; }
  std::string ToString() const;
};

/// Hash and equality of an arc's identity (p, l, c). The one key for every
/// arc-indexed table: the DOEM arc annotations and the encoder's
/// arc-history map. Transparent, so lookups take an ArcRef.
struct ArcHash {
  using is_transparent = void;
  size_t operator()(ArcRef a) const {
    size_t h = std::hash<std::string_view>{}(a.label);
    h ^= a.parent + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= a.child + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
  }
};
struct ArcEq {
  using is_transparent = void;
  bool operator()(ArcRef a, ArcRef b) const { return a == b; }
};
template <typename V>
using ArcMap = std::unordered_map<Arc, V, ArcHash, ArcEq>;

/// An OEM database (Definition 2.1): a rooted, labeled, directed graph of
/// objects. Nodes carry a Value; complex nodes (value C) may have outgoing
/// labeled arcs; atomic nodes may not. The graph may contain cycles and
/// nodes with multiple parents.
///
/// Mutations go through the four basic change operations of Section 2.1
/// (CreNode / UpdNode / AddArc / RemArc) plus the convenience constructors
/// NewNode/SetRoot used when building a database from scratch. All
/// mutators validate their preconditions and return an error Status
/// instead of corrupting the graph.
///
/// The paper's "persistence is by reachability" rule is *not* enforced
/// eagerly — within a set of changes objects may be temporarily
/// unreachable (Section 2.2). ApplyChangeSet (change.h) deletes them at
/// the set's boundary; CollectGarbage() deletes every unreachable object
/// of a database built op by op, and Validate() checks full
/// well-formedness including reachability.
class OemDatabase {
 public:
  OemDatabase() = default;

  // Copyable (snapshots are passed around by value in QSS) and movable.
  OemDatabase(const OemDatabase&) = default;
  OemDatabase& operator=(const OemDatabase&) = default;
  OemDatabase(OemDatabase&&) = default;
  OemDatabase& operator=(OemDatabase&&) = default;

  // ---- Construction helpers ------------------------------------------

  /// Creates a node with a fresh identifier and the given value.
  NodeId NewNode(const Value& value);

  /// Convenience wrappers for building literal databases in tests and
  /// examples. NewComplex() then AddArc(...) mirrors the figures.
  NodeId NewComplex() { return NewNode(Value::Complex()); }
  NodeId NewString(std::string s) {
    return NewNode(Value::String(std::move(s)));
  }
  NodeId NewInt(int64_t v) { return NewNode(Value::Int(v)); }

  /// Designates `root` as the distinguished root object. The node must
  /// exist and be complex.
  Status SetRoot(NodeId root);

  // ---- The four basic change operations (Section 2.1) ----------------

  /// creNode(n, v): creates object n with value v. n must be fresh; fresh
  /// means never used before in this database (deleted ids stay used).
  Status CreNode(NodeId node, const Value& value);

  /// updNode(n, v): changes the value of n. n must be atomic, or complex
  /// with no outgoing arcs.
  Status UpdNode(NodeId node, const Value& value);

  /// addArc(p, l, c): adds arc (p, l, c). p and c must exist, p must be
  /// complex, and the arc must not already exist.
  Status AddArc(NodeId parent, const std::string& label, NodeId child);

  /// remArc(p, l, c): removes arc (p, l, c), which must exist.
  Status RemArc(NodeId parent, const std::string& label, NodeId child);

  /// Sets the value of `node` without checking for outgoing arcs.
  ///
  /// For DoemDatabase only: a DOEM graph keeps removed arcs in place
  /// (annotated `rem`), so a node whose *live* out-arcs are all removed is
  /// a legal updNode target even though physical arcs remain. Plain OEM
  /// code must use UpdNode.
  Status SetValueForce(NodeId node, const Value& value);

  /// Erases `node` outright, for DoemDatabase's stillborn-node pruning.
  /// The node must have no incident arcs. The id stays burned.
  Status EraseNodeForce(NodeId node);

  /// Adds an arc without requiring the parent to be complex, for
  /// reconstructing a raw DOEM graph where removed arcs may hang off a
  /// node whose current value is atomic. Duplicate/endpoint checks still
  /// apply. Plain OEM code must use AddArc.
  Status AddArcForce(NodeId parent, const std::string& label, NodeId child);

  /// Re-sources every out-arc of `from` onto `to`: arc (from, l, c)
  /// becomes (to, l, c), keeping its place in the out-arc list and its
  /// ArcSeq. `to` must be complex, differ from `from` and have no
  /// out-arcs. Arcs into `from` are left alone. O(out-degree of `from`);
  /// QSS re-roots each polled answer with it.
  Status MoveOutArcs(NodeId from, NodeId to);

  /// Installs `arcs` as the whole out-arc list of `parent`, in their
  /// order, as that many AddArcs would: consecutive ArcSeqs (the `seq`
  /// fields passed in are ignored), a wide node's index built once, and
  /// each child's in-degree bumped. All or nothing: `parent` must exist,
  /// be complex and have no out-arcs, every child must exist, and no
  /// (label, child) may repeat. Answers are packaged and copied with it.
  Status SetOutArcs(NodeId parent, std::vector<OutArc> arcs);

  // ---- Lookup ---------------------------------------------------------

  NodeId root() const { return root_; }
  bool HasNode(NodeId node) const { return nodes_.contains(node); }
  /// Whether arc (parent, label, child) exists. One probe when `parent` is
  /// wide, a scan of its out-arcs otherwise.
  bool HasArc(NodeId parent, const std::string& label, NodeId child) const;

  /// Value of `node`; null if the node does not exist.
  const Value* GetValue(NodeId node) const;

  /// The arc's insertion sequence number, or nullopt if there is no such
  /// arc. Every AddArc takes the next number and none is reused; out-arc
  /// lists and label buckets only append and erase, so both list their
  /// arcs in ascending sequence order. Found as HasArc finds the arc.
  std::optional<uint64_t> ArcSeq(ArcRef arc) const;

  /// Outgoing arcs of `node` in insertion order; empty if none/unknown.
  const std::vector<OutArc>& OutArcs(NodeId node) const;

  /// Children of `node` reachable via arcs labeled `label`, in insertion
  /// order. One hash probe on a wide node, a scan of the out-arcs on any
  /// other.
  std::vector<NodeId> Children(NodeId node, const std::string& label) const;

  /// The `label`-children bucket of `node` when `node` is wide (out-degree
  /// above 16, the private kWideOutDegree) and has `label`-children, else
  /// null. Null also for a narrow node with `label`-children: its caller
  /// scans OutArcs instead. The bucket lists the children in insertion
  /// order and is valid until the next mutation; it lets read paths (the
  /// bytecode VM's label step) iterate a wide node's children without a
  /// copy.
  const std::vector<NodeId>* ChildBucket(NodeId node,
                                         const std::string& label) const;

  /// First child via `label`, or kInvalidNode. The encoder reads its
  /// single-valued `&` arcs with it.
  NodeId Child(NodeId node, const std::string& label) const;

  /// Number of arcs into `node` (its in-degree); 0 if none/unknown.
  size_t InDegree(NodeId node) const;

  size_t node_count() const { return nodes_.size(); }
  /// Number of arcs: the sum of the out-degrees, O(nodes).
  size_t arc_count() const {
    size_t arcs = 0;
    nodes_.ForEach([&](NodeId, const Node& n) { arcs += n.out.size(); });
    return arcs;
  }

  /// Number of `label`-children of `node`.
  size_t LabelChildCount(NodeId node, const std::string& label) const;

  /// All node ids, sorted ascending (deterministic iteration).
  std::vector<NodeId> NodeIds() const;

  /// All arcs, ordered by (parent id, insertion order). Deterministic.
  std::vector<Arc> AllArcs() const;

  /// Calls visit(id, value, out_arcs) once per node without building
  /// NodeIds() or AllArcs(). The order is the node table's slot order:
  /// creation order until an erased node's slot is reused, so callers
  /// must treat it as unspecified. `visit` must not mutate this database.
  template <typename Visit>
  void ForEachNode(Visit&& visit) const {
    nodes_.ForEach(
        [&](NodeId id, const Node& n) { visit(id, n.value, n.out); });
  }

  // ---- Reachability & integrity ---------------------------------------

  /// Deletes all nodes unreachable from the root (and their arcs),
  /// implementing "persistence by reachability". Returns the ids removed,
  /// sorted. Removed ids remain burned: they can never be re-created.
  ///
  /// A full sweep: O(graph). ApplyChangeSet collects only below the arcs
  /// and nodes its set touched, which is exact when the pre-state had no
  /// unreachable node; this sweep is the reference it is tested against,
  /// and builds that start from arbitrary parts (the DOEM decoder,
  /// DoemDatabase::FromParts) use it.
  std::vector<NodeId> CollectGarbage();

  /// Checks full well-formedness: a complex root exists, every arc's
  /// endpoints exist, only complex nodes have out-arcs, and every node is
  /// reachable from the root (Definition 2.1).
  Status Validate() const;

  /// Exact equality: same root, same node ids with equal values, same
  /// arcs (order-insensitive). See graph_compare.h for isomorphism.
  bool Equals(const OemDatabase& other) const;

  /// Ensures that identifiers >= `floor` are never handed out by NewNode
  /// with a value below `floor`. Used when merging databases.
  void ReserveIdsBelow(NodeId floor);

  /// Lets the ids of erased nodes be created again with CreNode. NewNode
  /// still never hands out an id below PeekNextId().
  void ForgetErasedIds() { erased_.clear(); }

  /// The next identifier NewNode would hand out.
  NodeId PeekNextId() const { return next_id_; }

 private:
  /// One object: its value, its out-arcs in insertion order (which is
  /// ArcSeq order), and its in-degree; `out` is the one record of each arc.
  /// Label and arc lookups on it scan `out` unless the node is wide, when
  /// they probe its index in `wide_`.
  struct Node {
    Value value;
    std::vector<OutArc> out;
    // Number of arcs into this node, for ApplyChangeSet's local garbage
    // collection. Maintained by AddArcForce, RemArc, garbage collection
    // and rollback.
    size_t in = 0;
  };

  /// An arc (label, child) of one node, with a borrowed label. Transparent
  /// hash and equality, so probes build no string.
  using LabelChild = std::pair<std::string_view, NodeId>;
  struct LabelChildHash {
    using is_transparent = void;
    size_t operator()(LabelChild a) const {
      return std::hash<std::string_view>{}(a.first) ^
             (a.second * 0x9e3779b97f4a7c15ULL);
    }
  };
  struct LabelChildEq {
    using is_transparent = void;
    bool operator()(LabelChild a, LabelChild b) const { return a == b; }
  };
  /// A wide node's index: its children by label, each list in out-arc
  /// order, and the ArcSeq of each of its arcs by (label, child).
  struct Wide {
    std::unordered_map<std::string, std::vector<NodeId>> buckets;
    std::unordered_map<std::pair<std::string, NodeId>, uint64_t,
                       LabelChildHash, LabelChildEq>
        seq;
  };

  /// The width bound: a node whose out-degree exceeds it is wide and keeps
  /// a Wide index in `wide_`, so a label or arc lookup on it is one probe
  /// however many labels it has (the guide root; a merged QSS group's wrapper root has
  /// one per subscriber). Below it a scan of `out` is as fast and costs no
  /// allocation per node. Exact after every mutator, rollback, move and
  /// copy: a node has an entry in `wide_` iff its out-degree is above it.
  static constexpr size_t kWideOutDegree = 16;

  // ApplyChangeSet (change.h) applies a set in place: it runs each op
  // through the mutators above, logs how to undo it, rolls the log back
  // on the first failure, and collects garbage locally on success.
  friend Status ApplyChangeSet(OemDatabase* db,
                               const std::vector<ChangeOp>& ops,
                               std::vector<NodeId>* deleted);

  /// Where an arc sat: its ArcSeq and its index in its parent's out-arc
  /// list, so an undone remArc puts it back exactly (a wide parent's
  /// bucket position follows from the out-arc list).
  struct ArcSlot {
    uint64_t seq = 0;
    size_t out_pos = 0;
  };
  /// What undoes one applied op of a change set.
  struct Undo {
    const ChangeOp* op = nullptr;
    Value old_value;  // updNode: the value it replaced
    ArcSlot slot;     // remArc: where the arc sat
  };

  /// RemArc that also reports where the arc sat, if `slot` is non-null.
  Status RemArc(NodeId parent, const std::string& label, NodeId child,
                ArcSlot* slot);
  /// Undoes `log` newest first and restores the id floor and the arc
  /// sequence counter to the values saved before its first op.
  void RollBack(std::vector<Undo>* log, NodeId next_id,
                uint64_t next_arc_seq);
  /// Persistence by reachability after the set `log` applied, looking
  /// only at the out-closure of the nodes it created and the children of
  /// the arcs it removed. Exact if every node was reachable before.
  std::vector<NodeId> CollectGarbageBelow(const std::vector<Undo>& log);
  /// Deletes `dead` (sorted, unreachable) with their out-arcs and burns
  /// their ids.
  void EraseUnreachable(const std::vector<NodeId>& dead);
  /// The slots of the nodes reachable from the root, as a bit vector over
  /// the node table's slots; `*count` is how many bits are set. `*sound`
  /// says whether every node reached is complex or has no out-arcs and
  /// every arc reached ends at a node.
  std::vector<bool> ReachableSlots(size_t* count, bool* sound) const;

  /// The `label` bucket of `node` if the node is wide, else null; sets
  /// `*narrow` to the record of a narrow node, which the caller scans.
  const std::vector<NodeId>* Bucket(NodeId node, const std::string& label,
                                    const Node** narrow) const;
  /// The ArcSeq of arc (node, label, child), or null if there is none;
  /// `n` is the record of `node`.
  const uint64_t* FindArc(NodeId node, const Node& n, std::string_view label,
                          NodeId child) const;
  /// Keeps `wide_` exact after n.out (the record of `node`) gained the arc
  /// at `pos`.
  void IndexAddedArc(NodeId node, const Node& n, size_t pos);
  /// Keeps `wide_` exact after n.out lost the arc (node, label, child).
  void IndexRemovedArc(NodeId node, const Node& n, const std::string& label,
                       NodeId child);

  /// The record of `node`, or null; as const as `self`.
  template <typename Self>
  static auto* Find(Self& self, NodeId node) {
    return self.nodes_.Find(node);
  }

  // The node records, in blocks, with an id -> slot index.
  NodeTable<Node> nodes_;
  // The index of each wide node, by node id.
  std::unordered_map<NodeId, Wide> wide_;
  // The ArcSeq the next AddArc takes.
  uint64_t next_arc_seq_ = 0;
  // Ids of erased nodes.
  std::unordered_set<NodeId> erased_;
  NodeId root_ = kInvalidNode;
  NodeId next_id_ = 1;
};

}  // namespace doem

#endif  // DOEM_OEM_OEM_H_
