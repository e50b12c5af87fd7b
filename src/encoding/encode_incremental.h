#ifndef DOEM_ENCODING_ENCODE_INCREMENTAL_H_
#define DOEM_ENCODING_ENCODE_INCREMENTAL_H_

#include <string>

#include "common/result.h"
#include "doem/doem.h"
#include "encoding/encode.h"
#include "oem/change.h"
#include "oem/oem.h"

namespace doem {

/// Incremental maintenance of the Section 5.1 DOEM-in-OEM encoding: the
/// encoding is built once and then *patched* with each poll's change set,
/// so per-poll encoding cost is O(|delta|) instead of O(|history|).
///
/// Auxiliary nodes (value atoms, upd records, history objects) are
/// allocated in a reserved high id band (>= kAuxIdBase) so that source
/// node ids handed out later can never collide with auxiliary ids. As a
/// consequence a maintained encoding has *different auxiliary ids* than a
/// fresh EncodeDoem(d) — the two are equal up to auxiliary-node renaming:
/// DecodeDoem of either yields the same DoemDatabase, and graph_compare's
/// Isomorphic holds. Query results are unaffected because answers expose
/// encoding-object ids (DOEM ids, shared by construction) and atomic
/// values, never auxiliary ids.
class IncrementalEncoder {
 public:
  /// Auxiliary ids live at or above this floor. Source/DOEM ids (QSS
  /// wrapper nodes use 1<<62) stay far below it.
  static constexpr NodeId kAuxIdBase = NodeId{1} << 63;

  /// Cumulative maintenance tallies since Create (DESIGN.md §6d): every
  /// change op patched in, and every auxiliary node (value atom, upd
  /// record, history object, timestamp atom) the patches allocated. The
  /// initial full encode is not counted — these measure the *patching*
  /// work the incremental path does per poll.
  struct PatchStats {
    size_t patch_ops = 0;
    size_t aux_allocations = 0;
  };

  /// Builds the full encoding of `d` plus the lookup tables used for
  /// O(delta) patching. Fails if `d` has node ids at or above kAuxIdBase.
  static Result<IncrementalEncoder> Create(const DoemDatabase& d);

  /// Patches the encoding with one change set. Call *after* the change
  /// set has been applied to `d` (i.e. `d` is the post-state of
  /// `d.ApplyChangeSet(t, ops)`). Ops whose node/arc the apply erased
  /// from `d` as stillborn are skipped, matching what a fresh encode of
  /// `d` would produce. On error the encoding is unusable; rebuild via Create.
  Status ApplyDelta(const DoemDatabase& d, Timestamp t, const ChangeSet& ops);

  const OemDatabase& encoding() const { return enc_; }

  const PatchStats& stats() const { return stats_; }

 private:
  IncrementalEncoder() = default;

  Status PatchCreNode(const DoemDatabase& d, Timestamp t, const ChangeOp& op);
  Status PatchUpdNode(const DoemDatabase& d, Timestamp t, const ChangeOp& op);
  Status PatchAddArc(const DoemDatabase& d, Timestamp t, const ChangeOp& op);
  Status PatchRemArc(Timestamp t, const ChangeOp& op);

  /// Allocates an auxiliary atom/complex node, counting it in stats_.
  NodeId NewAux(const Value& v);
  NodeId NewAuxComplex();

  OemDatabase enc_;
  PatchStats stats_;
  // (parent, label, child) -> &l-history object id, so re-adds and
  // removals reach their history object without scanning same-label
  // siblings.
  ArcMap<NodeId> arc_history_;
};

}  // namespace doem

#endif  // DOEM_ENCODING_ENCODE_INCREMENTAL_H_
