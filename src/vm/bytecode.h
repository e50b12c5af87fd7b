#ifndef DOEM_VM_BYTECODE_H_
#define DOEM_VM_BYTECODE_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "lorel/ast.h"
#include "lorel/eval.h"
#include "oem/timestamp.h"
#include "oem/value.h"

namespace doem {
namespace vm {

/// Opcodes of the query VM (DESIGN.md §6f). A compiled program is a flat
/// array of fixed-size instructions executed by a dispatch loop over a
/// register file — the SQLite-VDBE shape — instead of the tree-walking
/// evaluator's virtual AST recursion.
///
/// Loop-open opcodes materialize one range definition's candidate list
/// into its slot; the kLoopNext that follows advances the slot cursor and
/// writes the bound registers, jumping outward on exhaustion. Each open
/// opcode mirrors one enumeration shape of lorel::Evaluate's MatchStep
/// bit for bit, including its EvalStats accounting.
enum class Op : uint8_t {
  kHalt = 0,
  // ---- loop opens (a = slot index) ----
  kStepLabel,  // plain label step (optionally <at T>-decorated endpoint)
  kStepAny,    // '%': one arc, any label
  kStepWild,   // '#': any path of length >= 0
  kSeedAnn,    // plain label + <cre/upd> node annotation; index-seeded
               // when the time variable is range-bounded, scan fallback
  kSeedArc,    // <add/rem at T> arc annotation; index-seeded, scan fallback
  kLiveAt,     // <at T> arc annotation: children live at time T
  // ---- iteration ----
  kLoopNext,  // a = slot, b = jump target on exhaustion
  // ---- predicates ----
  kCmpJump,  // sub = BinOp, operands (u1,a)/(u2,b), c = true pc, d = false pc
  kJump,     // a = target pc
  // ---- output ----
  kEmit,  // project select args into a row; a = jump target (innermost next)
};

/// Where an operand of kCmpJump — or a select-projection / at-time
/// argument — comes from.
enum class ArgSrc : uint8_t {
  kReg = 0,    // register (an RtVal bound by a loop)
  kConst,      // literal pool
  kTimeSlot,   // t[i], resolved once per run from the polling times
};

struct Instr {
  Op op = Op::kHalt;
  uint8_t sub = 0;          // kCmpJump: the lorel::BinOp
  uint8_t u1 = 0, u2 = 0;   // kCmpJump: lhs / rhs ArgSrc
  int32_t a = 0, b = 0, c = 0, d = 0;
};

/// An <at T> time operand, resolved at slot-open time.
struct AtTimeArg {
  enum class Kind : uint8_t { kNone, kConst, kTimeSlot, kReg };
  Kind kind = Kind::kNone;
  int32_t index = 0;
};

/// Compile-time plan for one range definition (one loop slot).
struct SlotPlan {
  Op open = Op::kStepLabel;
  int32_t source_reg = -1;  // -1 = database root
  int32_t end_reg = -1;
  bool bind_value = false;
  lorel::PathStep step;  // label / wildcards / annotation shapes
  // Annotation-variable registers (-1 = variable not written).
  int32_t arc_time_reg = -1;
  int32_t node_time_reg = -1;
  int32_t from_reg = -1;
  int32_t to_reg = -1;
  // <at T> operands (arc position / node position).
  AtTimeArg at_arc, at_node;
  /// Name of the seedable, where-bounded time variable driving
  /// annotation-index seeding for this slot; empty = never seeds.
  std::string seed_var;
};

/// One top-level where conjunct, compiled to kCmpJump/kJump instructions.
/// Internal jump targets are conjunct-relative offsets; kTargetPass /
/// kTargetFail are patched when the run program is assembled (pass =
/// fall through to the enclosing loop body, fail = advance the loop).
struct Conjunct {
  static constexpr int32_t kTargetPass = -1;
  static constexpr int32_t kTargetFail = -2;

  std::vector<Instr> code;
  /// The deepest slot whose registers the conjunct reads, -1 for none: the
  /// conjunct is placed just inside that slot's loop (predicate push-down).
  int32_t depth = -1;
};

/// One select-clause projection.
struct SelectArg {
  ArgSrc src = ArgSrc::kReg;
  int32_t index = 0;
};

/// A symbolic record of one time bound from a top-level AND conjunct of
/// the where clause (T > t[-1], T <= 1997-03-01, ...). A candidate whose
/// annotation time falls outside the folded bounds binds a T that fails
/// the conjunct, so seeding the step from the index range is sound. The
/// numeric fold is replayed per run because t[i] bounds depend on the
/// polling times.
struct BoundTerm {
  std::string var;
  lorel::BinOp op = lorel::BinOp::kEq;  // oriented as var-op-bound
  bool is_time_ref = false;
  int32_t time_slot = 0;  // when is_time_ref: index into the run's times
  Timestamp literal;      // otherwise, pre-coerced to a timestamp
};

/// A compiled query program: slot plans in definition order,
/// predicate/projection bytecode, constant pools, and the assembled
/// instruction stream. Loops nest in definition order, outermost first —
/// the tree walker's left-to-right nesting (DESIGN.md §6f).
struct Program {
  std::vector<SlotPlan> slots;
  std::vector<Conjunct> conjuncts;
  std::vector<SelectArg> select;
  std::vector<std::string> labels;  // result labels (NormQuery::labels)
  std::vector<Value> const_pool;
  std::vector<int> time_refs;  // time slot -> the i of t[i]
  std::vector<BoundTerm> bound_terms;
  std::unordered_set<std::string> seedable_vars;
  uint32_t reg_count = 0;
  bool needs_annotations = false;
  bool needs_time_travel = false;
  /// The instruction stream, assembled once at compile time.
  std::vector<Instr> code;

  /// Human-readable instruction listing (tests, debugging).
  std::string Disassemble() const;
};

/// Assembles the instruction stream: one loop per slot, nested in
/// definition order. Where conjuncts are pushed down to the deepest loop
/// that binds all their inputs.
std::vector<Instr> AssembleCode(const Program& p);

const char* OpName(Op op);

}  // namespace vm
}  // namespace doem

#endif  // DOEM_VM_BYTECODE_H_
