#ifndef DOEM_DIFF_DIFF_H_
#define DOEM_DIFF_DIFF_H_

#include <unordered_map>

#include "common/result.h"
#include "oem/change.h"
#include "oem/oem.h"

namespace doem {

/// OEMdiff (paper Section 6, Figure 7): given two snapshots R_{i-1} and
/// R_i of a polling query's result, infer a set of basic change
/// operations U with U(R_{i-1}) = R_i. This is the snapshot-differencing
/// role the paper fills with the algorithms of [CRGMW96, CGM97].
///
/// Two modes:
///
///   kKeyed      — the source preserves object identifiers across
///                 snapshots (a Tsimmis wrapper exporting stable OIDs).
///                 The diff is exact: ApplyChangeSet(from, U) == to.
///
///   kStructural — identifiers are NOT comparable across snapshots (each
///                 poll re-packages the result with fresh ids). Nodes are
///                 matched top-down by label context, values, and subtree
///                 signatures — a simplification of the CRGMW96 matching.
///                 Unmatched `to` nodes become creations with fresh ids;
///                 the guarantee is ApplyChangeSet(from, U) isomorphic to
///                 `to`. An ambiguous matching can cost extra operations
///                 (delete+create instead of update) but never
///                 correctness.
enum class DiffMode { kKeyed, kStructural };

/// Computes the change set. The returned set is conflict-free and valid
/// for `from`.
///
/// Precondition: both databases are well-formed (Validate() passes). The
/// diff does not run Validate(), which reads the whole graph: callers
/// validate each snapshot once, where it enters the program (QSS at
/// fetch; a DOEM current snapshot is valid by construction; ParseHtml
/// builds a rooted tree). Only the O(1) part is checked here: each side
/// has a complex root, else InvalidArgument. On an ill-formed input that
/// passes this check the result is unspecified.
///
/// Keyed mode makes one pass over `to`'s node records and sorts only the
/// ops it emits: O(|to| + |U| log |U|) hash probes and comparisons.
Result<ChangeSet> DiffSnapshots(const OemDatabase& from,
                                const OemDatabase& to, DiffMode mode);

/// kStructural's node matching: a partial injective map from `from` ids to
/// `to` ids, rooted at the two roots. The structural diff emits its ops
/// against it, in an order that follows from it and the two graphs alone.
std::unordered_map<NodeId, NodeId> MatchStructure(const OemDatabase& from,
                                                  const OemDatabase& to);

/// Summary counters for reporting (htmldiff markup, QSS logs, benches).
struct DiffStats {
  size_t creations = 0;
  size_t updates = 0;
  size_t arc_additions = 0;
  size_t arc_removals = 0;

  std::string ToString() const;
};

DiffStats SummarizeChanges(const ChangeSet& ops);

}  // namespace doem

#endif  // DOEM_DIFF_DIFF_H_
