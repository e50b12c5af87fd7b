#ifndef DOEM_OEM_CHANGE_H_
#define DOEM_OEM_CHANGE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "oem/oem.h"
#include "oem/value.h"

namespace doem {

/// One of the four basic change operations of Section 2.1:
/// creNode(n, v), updNode(n, v), addArc(p, l, c), remArc(p, l, c).
struct ChangeOp {
  enum class Kind { kCreNode, kUpdNode, kAddArc, kRemArc };

  Kind kind = Kind::kCreNode;
  /// Target node for creNode/updNode.
  NodeId node = kInvalidNode;
  /// New value for creNode/updNode.
  Value value;
  /// The arc for addArc/remArc.
  Arc arc;

  static ChangeOp CreNode(NodeId n, Value v) {
    return ChangeOp{Kind::kCreNode, n, std::move(v), {}};
  }
  static ChangeOp UpdNode(NodeId n, Value v) {
    return ChangeOp{Kind::kUpdNode, n, std::move(v), {}};
  }
  static ChangeOp AddArc(NodeId p, std::string l, NodeId c) {
    return ChangeOp{Kind::kAddArc, kInvalidNode, Value(),
                    Arc{p, std::move(l), c}};
  }
  static ChangeOp RemArc(NodeId p, std::string l, NodeId c) {
    return ChangeOp{Kind::kRemArc, kInvalidNode, Value(),
                    Arc{p, std::move(l), c}};
  }

  /// Applies this single operation to `db`, validating its precondition.
  Status ApplyTo(OemDatabase* db) const;

  bool operator==(const ChangeOp& o) const = default;
  std::string ToString() const;
};

/// An unordered set U of basic change operations (Definition 2.2's valid
/// sets). Represented as a vector; set semantics are enforced by
/// CheckChangeSetConflicts.
using ChangeSet = std::vector<ChangeOp>;

/// Rejects change sets whose outcome could depend on operation order, the
/// conditions under which Definition 2.2's "all valid sequences agree"
/// could fail or the DOEM representation would be ambiguous:
///   - two creNode, two updNode, or a creNode and an updNode on one node;
///   - addArc and remArc of the same (p, l, c) (explicitly forbidden by
///     Definition 2.2);
///   - duplicate identical operations.
Status CheckChangeSetConflicts(const ChangeSet& ops);

/// Reorders `ops` into the canonical application order
///   creNode -> remArc -> updNode -> addArc
/// preserving relative order within each phase.
///
/// For every change set that passes CheckChangeSetConflicts and admits
/// *some* valid ordering, this ordering is valid: creations must precede
/// uses of the node; an update that turns a complex object atomic needs its
/// arcs removed first (remArc before updNode); an update that turns an
/// atomic object complex must precede arcs added under it (updNode before
/// addArc); and no valid set ever needs addArc before remArc or updNode
/// before remArc, since removals only require that the arc exists
/// beforehand, which earlier phases cannot establish (add/rem of the same
/// arc in one set is forbidden).
ChangeSet CanonicalOrder(const ChangeSet& ops);

/// Applies the set U to `db` transactionally: on any error `db` is left
/// unchanged and the paper-level reason is reported. On success,
/// unreachable objects are deleted ("persistence is by reachability",
/// applied at change-set boundaries per Section 2.2); their ids are
/// appended to `*deleted` if non-null, sorted.
///
/// Costs O(|U|) probes, a scan of each parent U removes an arc from, and a
/// walk of the part of the graph below U's removed arcs and created nodes,
/// not O(graph): U is applied in place in canonical order,
/// each op through its OemDatabase mutator (so those stay the one
/// statement of the op rules and their errors), and an undo log restores
/// the exact pre-state (arc order, ArcSeq, label buckets, burned ids, id
/// floor) on the first failure, whose Status is returned unchanged.
/// Garbage is then collected only in the out-closure of the created nodes
/// and of the removed arcs' children.
///
/// Precondition: every object of `db` is reachable from its root, as
/// after any previous ApplyChangeSet. (Otherwise objects that were
/// already unreachable may survive; OemDatabase::CollectGarbage, the
/// full sweep and the reference for this one, deletes them.)
Status ApplyChangeSet(OemDatabase* db, const ChangeSet& ops,
                      std::vector<NodeId>* deleted = nullptr);

/// True if `a` and `b` contain the same operations, ignoring order and
/// multiplicity-preserving (multiset equality).
bool ChangeSetEquals(const ChangeSet& a, const ChangeSet& b);

std::string ChangeSetToString(const ChangeSet& ops);

}  // namespace doem

#endif  // DOEM_OEM_CHANGE_H_
