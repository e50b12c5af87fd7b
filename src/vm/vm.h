#ifndef DOEM_VM_VM_H_
#define DOEM_VM_VM_H_

#include "common/result.h"
#include "lorel/eval.h"
#include "lorel/view.h"
#include "vm/bytecode.h"

namespace doem {
namespace vm {

/// Executes a compiled program against a view, nesting its loops in
/// definition order as the tree walker does. Produces byte-identical
/// results to lorel::Evaluate on the same NormQuery — including row
/// order, dedup, max_rows behavior and answer packaging. Steps seed from
/// the view's annotation index when it has one; the seeding hooks answer
/// in scan order, so seeding changes only the work done. EvalStats match
/// the walker's for runs that seed no step. Any error (unsupported view
/// capability, time operand failure, max_rows) should be handled by
/// falling back to the tree walker, whose result is authoritative.
Result<lorel::QueryResult> Run(const Program& p, const lorel::GraphView& view,
                               const lorel::EvalOptions& opts = {});

}  // namespace vm
}  // namespace doem

#endif  // DOEM_VM_VM_H_
