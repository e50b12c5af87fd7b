#ifndef DOEM_VM_VM_H_
#define DOEM_VM_VM_H_

#include <vector>

#include "common/result.h"
#include "lorel/eval.h"
#include "lorel/view.h"
#include "vm/bytecode.h"

namespace doem {
namespace vm {

/// Diagnostics about one VM run (tests, metrics).
struct RunInfo {
  /// The cost model chose a non-identity loop nesting.
  bool reordered = false;
  /// Slot execution order, outermost first.
  std::vector<uint32_t> order;
};

/// Executes a compiled program against a view. Produces byte-identical
/// results to lorel::Evaluate on the same NormQuery — including row
/// order, dedup, max_rows behavior and answer packaging. Steps seed from
/// the view's annotation index when it has one; the seeding hooks answer
/// in scan order, so seeding changes only the work done. EvalStats match
/// the walker's for identity-order runs that seed no step. Any error
/// (unsupported view capability, time operand failure, max_rows) should
/// be handled by falling back to the tree walker, whose result is
/// authoritative.
Result<lorel::QueryResult> Run(const Program& p, const lorel::GraphView& view,
                               const lorel::EvalOptions& opts = {},
                               RunInfo* info = nullptr);

}  // namespace vm
}  // namespace doem

#endif  // DOEM_VM_VM_H_
