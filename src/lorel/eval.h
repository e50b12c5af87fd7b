#ifndef DOEM_LOREL_EVAL_H_
#define DOEM_LOREL_EVAL_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "lorel/normalize.h"
#include "lorel/view.h"
#include "oem/oem.h"

namespace doem {
namespace lorel {

/// A runtime binding: either a database object (with an optional "as of"
/// time attached by a virtual <at T> node annotation) or a plain value
/// (timestamps and old/new values bound by annotation expressions).
struct RtVal {
  enum class Kind { kNode, kValue };

  Kind kind = Kind::kValue;
  NodeId node = kInvalidNode;
  std::optional<Timestamp> as_of;
  Value value;

  static RtVal Node(NodeId n) {
    RtVal v;
    v.kind = Kind::kNode;
    v.node = n;
    return v;
  }
  static RtVal NodeAt(NodeId n, Timestamp t) {
    RtVal v = Node(n);
    v.as_of = t;
    return v;
  }
  static RtVal Val(Value val) {
    RtVal v;
    v.value = std::move(val);
    return v;
  }

  /// Canonical key used for row deduplication and deterministic ordering.
  std::string Key() const;
  /// Field comparison — equivalent to Key() == o.Key() without
  /// materializing the key strings.
  bool operator==(const RtVal& o) const {
    return kind == o.kind && node == o.node && as_of == o.as_of &&
           value == o.value;
  }
};

/// The outcome of a query: raw variable bindings per result row (used by
/// the differential tests and the QSS), display labels per select item,
/// and the result packaged as an OEM database in Lorel style — the root
/// has one arc per result; multi-item rows become complex "answer"
/// objects whose components carry the item labels (paper Example 4.4).
struct QueryResult {
  std::vector<std::string> labels;
  std::vector<std::vector<RtVal>> rows;
  OemDatabase answer;

  std::string RowsToString() const;
};

/// Per-evaluation profiling counters (DESIGN.md §6d): where a query's
/// time went, in evaluator-native units. Collected only when
/// EvalOptions::stats is set; counters are *added to*, never reset, so
/// one EvalStats can accumulate across a whole poll's filter runs.
struct EvalStats {
  /// Candidate endpoint nodes considered across all path steps, before
  /// the where clause prunes them.
  size_t nodes_visited = 0;
  /// Live out-arcs enumerated while matching steps ('#'/'%' closures and
  /// plain-label child lookups).
  size_t arcs_expanded = 0;
  /// Annotation steps whose candidates were seeded from the annotation
  /// index (the DESIGN.md §6c fast path). Only the bytecode VM seeds.
  size_t steps_index_seeded = 0;
  /// Annotation steps that scanned children/annotations: every one in
  /// the tree walker; in the VM, those with no index, no range-bounded
  /// time variable, or a step shape that cannot seed.
  size_t steps_scanned = 0;
  /// Index postings read by seeded steps, including postings of other
  /// sources and labels.
  size_t postings_scanned = 0;
};

struct EvalOptions {
  /// Polling times t_1..t_k for resolving the QSS variables t[0], t[-1],
  /// ... (Section 6): t[0] = t_k, t[-i] = t_{k-i}, negative infinity when
  /// out of range. Null if the query must not use t[i].
  const std::vector<Timestamp>* polling_times = nullptr;
  /// Safety valve: abort with an error after this many result rows
  /// (0 = unlimited).
  size_t max_rows = 0;
  /// Skip building `answer` (rows only) — used by benchmarks and QSS
  /// internals.
  bool package_results = true;
  /// When set, the evaluator adds its profiling counters here on
  /// completion (success or failure). Purely observational: identical
  /// rows with or without it.
  EvalStats* stats = nullptr;
};

/// Runs a normalized query against a view. Chorel annotation expressions
/// require view.SupportsAnnotations(); virtual <at T> annotations require
/// view.SupportsTimeTravel().
Result<QueryResult> Evaluate(const NormQuery& q, const GraphView& view,
                             const EvalOptions& opts = {});

// ---- Shared row machinery (tree-walker + bytecode VM) -----------------
//
// The bytecode VM (src/vm/) must produce byte-identical results to the
// tree-walking evaluator, so row deduplication keys and answer packaging
// are factored out and used by both.

/// Canonical deduplication key of a result row: each item's RtVal::Key()
/// followed by a field separator.
std::string RowDedupKey(const std::vector<RtVal>& row);

/// Packages result->rows as the Lorel-style answer database described on
/// QueryResult (single-select rows hang off the root; multi-select rows
/// become complex "answer" objects). `select_count` is the number of
/// select items.
Status PackageResult(const GraphView& view, size_t select_count,
                     QueryResult* result);

}  // namespace lorel
}  // namespace doem

#endif  // DOEM_LOREL_EVAL_H_
