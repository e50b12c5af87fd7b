#ifndef DOEM_VM_COST_H_
#define DOEM_VM_COST_H_

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lorel/view.h"
#include "oem/timestamp.h"
#include "vm/bytecode.h"

namespace doem {
namespace vm {

/// Per-run [lo, hi] time bounds of seedable annotation variables.
using BoundsMap =
    std::unordered_map<std::string, std::pair<Timestamp, Timestamp>>;

/// Folds the program's where-derived time bounds (BoundTerm) for one run.
/// `times` holds the run's resolved time slots (t[i] values).
BoundsMap ReplayBounds(const Program& p, const std::vector<Timestamp>& times);

/// Estimated candidate cardinality of one slot: annotation-index posting
/// counts for seeded steps, per-label arc statistics for plain steps,
/// node count for wildcards; GraphView::kUnknownCardinality when the view
/// has no statistics for the shape.
size_t EstimateSlot(const Program& p, uint32_t slot,
                    const lorel::GraphView& view, const BoundsMap& bounds);

/// Chooses the loop nesting (outermost first) by greedily scheduling the
/// cheapest dependency-ready slot; ties — including the all-unknown
/// case — resolve to the original left-to-right order, so statistics-free
/// views keep the tree walker's nesting exactly.
std::vector<uint32_t> PlanOrder(const Program& p, const lorel::GraphView& view,
                                const BoundsMap& bounds);

}  // namespace vm
}  // namespace doem

#endif  // DOEM_VM_COST_H_
