#include "vm/compile.h"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

namespace doem {
namespace vm {

namespace {

using lorel::AnnotExpr;
using lorel::AnnotKind;
using lorel::BinOp;
using lorel::Expr;
using lorel::ExprPtr;
using lorel::NormQuery;
using lorel::RangeDef;
using lorel::SelectItem;

Status Unsup(const std::string& what) {
  return Status::Unsupported("vm: " + what);
}

/// Jump-target encoding during conjunct generation: targets are either
/// the pass/fail sentinels or a label id offset by kLabelBase; labels are
/// rewritten to conjunct-local instruction offsets once all code is laid
/// out (offsets and label ids would otherwise collide).
constexpr int32_t kLabelBase = 1 << 20;

class Compiler {
 public:
  explicit Compiler(const NormQuery& q) : q_(q) {}

  Result<Program> Compile() {
    CollectSeedable();
    for (uint32_t i = 0; i < q_.defs.size(); ++i) {
      DOEM_RETURN_IF_ERROR(CompileSlot(q_.defs[i], i));
    }
    DOEM_RETURN_IF_ERROR(CompileWhere());
    DOEM_RETURN_IF_ERROR(CompileSelect());
    CollectBoundTerms(q_.where);
    p_.labels = q_.labels;
    p_.reg_count = next_reg_;
    p_.code = AssembleCode(p_);
    return std::move(p_);
  }

 private:
  struct RegInfo {
    int32_t reg = -1;
    int32_t slot = -1;  // defining slot
  };

  /// Index-seeding eligibility: a variable qualifies only if bound by
  /// exactly one def (def vars count double so any collision
  /// disqualifies). A reused name would be rebound later, so the where
  /// clause could not observe the binding seeding prunes.
  void CollectSeedable() {
    std::unordered_map<std::string, int> counts;
    for (const RangeDef& def : q_.defs) {
      counts[def.var] += 2;
      for (const AnnotExpr* annot :
           {def.step.arc_annot ? &*def.step.arc_annot : nullptr,
            def.step.node_annot ? &*def.step.node_annot : nullptr}) {
        if (annot == nullptr) continue;
        for (const std::string* v :
             {&annot->time_var, &annot->from_var, &annot->to_var}) {
          if (!v->empty()) counts[*v] += 1;
        }
      }
    }
    for (const auto& [name, n] : counts) {
      if (n == 1) p_.seedable_vars.insert(name);
    }
  }

  /// Binds `name` to a register owned by `slot`. The tree walker's
  /// env-erase discipline makes variables reused across definitions
  /// behave in ways a flat register file cannot reproduce, so those are
  /// rejected; within one definition, aliased names share a register and
  /// the bind order (annotation variables first, endpoint last) yields
  /// the walker's last-write-wins value.
  Result<int32_t> Bind(const std::string& name, uint32_t slot) {
    auto it = regs_.find(name);
    if (it != regs_.end()) {
      if (it->second.slot != static_cast<int32_t>(slot)) {
        return Unsup("variable '" + name +
                     "' is bound by more than one definition");
      }
      return it->second.reg;
    }
    int32_t reg = next_reg_++;
    regs_.emplace(name, RegInfo{reg, static_cast<int32_t>(slot)});
    return reg;
  }

  int32_t AddConst(const Value& v) {
    p_.const_pool.push_back(v);
    return static_cast<int32_t>(p_.const_pool.size()) - 1;
  }

  int32_t TimeSlotFor(int i) {
    auto it = time_slots_.find(i);
    if (it != time_slots_.end()) return it->second;
    int32_t slot = static_cast<int32_t>(p_.time_refs.size());
    p_.time_refs.push_back(i);
    time_slots_.emplace(i, slot);
    return slot;
  }

  /// An <at T> operand. Variables must come from an *earlier* definition:
  /// the walker evaluates at-times against the enclosing environment, in
  /// which the current step's own annotation variables are not yet bound.
  Result<AtTimeArg> CompileAtTime(const ExprPtr& e, uint32_t slot) {
    AtTimeArg arg;
    if (e == nullptr) return Unsup("<at> without a time operand");
    switch (e->kind) {
      case Expr::Kind::kLiteral:
        arg.kind = AtTimeArg::Kind::kConst;
        arg.index = AddConst(e->literal);
        return arg;
      case Expr::Kind::kTimeRef:
        arg.kind = AtTimeArg::Kind::kTimeSlot;
        arg.index = TimeSlotFor(e->time_ref);
        return arg;
      case Expr::Kind::kVar: {
        auto it = regs_.find(e->var);
        if (it == regs_.end() ||
            it->second.slot >= static_cast<int32_t>(slot)) {
          return Unsup("<at> variable '" + e->var +
                       "' is not bound by an earlier definition");
        }
        arg.kind = AtTimeArg::Kind::kReg;
        arg.index = it->second.reg;
        return arg;
      }
      default:
        return Unsup("<at> operand '" + e->ToString() + "'");
    }
  }

  Status CompileSlot(const RangeDef& def, uint32_t idx) {
    SlotPlan sp;
    const lorel::PathStep& st = def.step;
    sp.step = st;
    sp.bind_value = def.bind_value;
    if (!def.source_var.empty()) {
      auto it = regs_.find(def.source_var);
      if (it == regs_.end()) {
        return Unsup("source variable '" + def.source_var +
                     "' is not bound by an earlier definition");
      }
      sp.source_reg = it->second.reg;
    }

    if (st.arc_annot) {
      const AnnotExpr& a = *st.arc_annot;
      switch (a.kind) {
        case AnnotKind::kAt: {
          sp.open = Op::kLiveAt;
          p_.needs_time_travel = true;
          DOEM_ASSIGN_OR_RETURN(sp.at_arc, CompileAtTime(a.at_time, idx));
          break;
        }
        case AnnotKind::kAdd:
        case AnnotKind::kRem: {
          sp.open = Op::kSeedArc;
          p_.needs_annotations = true;
          if (!a.time_var.empty()) {
            DOEM_ASSIGN_OR_RETURN(sp.arc_time_reg, Bind(a.time_var, idx));
          }
          break;
        }
        default:
          return Unsup("cre/upd annotation in arc position");
      }
    } else if (st.wildcard) {
      sp.open = Op::kStepWild;
    } else if (st.wildcard_one) {
      sp.open = Op::kStepAny;
    } else {
      sp.open = Op::kStepLabel;
    }

    if (st.node_annot) {
      const AnnotExpr& a = *st.node_annot;
      switch (a.kind) {
        case AnnotKind::kCre: {
          p_.needs_annotations = true;
          if (!a.time_var.empty()) {
            DOEM_ASSIGN_OR_RETURN(sp.node_time_reg, Bind(a.time_var, idx));
          }
          break;
        }
        case AnnotKind::kUpd: {
          p_.needs_annotations = true;
          if (!a.time_var.empty()) {
            DOEM_ASSIGN_OR_RETURN(sp.node_time_reg, Bind(a.time_var, idx));
          }
          if (!a.from_var.empty()) {
            DOEM_ASSIGN_OR_RETURN(sp.from_reg, Bind(a.from_var, idx));
          }
          if (!a.to_var.empty()) {
            DOEM_ASSIGN_OR_RETURN(sp.to_reg, Bind(a.to_var, idx));
          }
          break;
        }
        case AnnotKind::kAt: {
          p_.needs_time_travel = true;
          DOEM_ASSIGN_OR_RETURN(sp.at_node, CompileAtTime(a.at_time, idx));
          break;
        }
        default:
          return Unsup("add/rem annotation in node position");
      }
      // Plain-label steps with a cre/upd node annotation try the
      // annotation index before scanning.
      if (sp.open == Op::kStepLabel &&
          (a.kind == AnnotKind::kCre || a.kind == AnnotKind::kUpd)) {
        sp.open = Op::kSeedAnn;
      }
    }

    // Seed-variable eligibility; whether the where clause bounds it is
    // a per-run question (ReplayBounds).
    if (sp.open == Op::kSeedAnn || sp.open == Op::kSeedArc) {
      const AnnotExpr& a =
          sp.open == Op::kSeedArc ? *st.arc_annot : *st.node_annot;
      if (!a.time_var.empty() && p_.seedable_vars.contains(a.time_var)) {
        sp.seed_var = a.time_var;
      }
    }

    DOEM_ASSIGN_OR_RETURN(sp.end_reg, Bind(def.var, idx));
    p_.slots.push_back(std::move(sp));
    return Status::OK();
  }

  // ---- where clause ----------------------------------------------------

  Status CompileWhere() {
    if (q_.where == nullptr) return Status::OK();
    return SplitConjuncts(q_.where);
  }

  Status SplitConjuncts(const ExprPtr& e) {
    if (e->kind == Expr::Kind::kBinary && e->op == BinOp::kAnd) {
      DOEM_RETURN_IF_ERROR(SplitConjuncts(e->lhs));
      return SplitConjuncts(e->rhs);
    }
    Conjunct cj;
    std::vector<int32_t> labels;
    DOEM_RETURN_IF_ERROR(GenBool(e, Conjunct::kTargetPass,
                                 Conjunct::kTargetFail, &cj, &labels));
    // Rewrite label ids to conjunct-local offsets.
    for (Instr& ins : cj.code) {
      for (int32_t* t : {&ins.a, &ins.b, &ins.c, &ins.d}) {
        if (ins.op == Op::kCmpJump && (t == &ins.a || t == &ins.b)) continue;
        if (ins.op == Op::kJump && t != &ins.a) continue;
        if (*t >= kLabelBase) *t = labels[*t - kLabelBase];
      }
    }
    p_.conjuncts.push_back(std::move(cj));
    return Status::OK();
  }

  Status GenBool(const ExprPtr& e, int32_t tt, int32_t ft, Conjunct* cj,
                 std::vector<int32_t>* labels) {
    switch (e->kind) {
      case Expr::Kind::kBinary: {
        if (e->op == BinOp::kAnd) {
          int32_t mid = NewLabel(labels);
          DOEM_RETURN_IF_ERROR(
              GenBool(e->lhs, kLabelBase + mid, ft, cj, labels));
          (*labels)[mid] = static_cast<int32_t>(cj->code.size());
          return GenBool(e->rhs, tt, ft, cj, labels);
        }
        if (e->op == BinOp::kOr) {
          int32_t mid = NewLabel(labels);
          DOEM_RETURN_IF_ERROR(
              GenBool(e->lhs, tt, kLabelBase + mid, cj, labels));
          (*labels)[mid] = static_cast<int32_t>(cj->code.size());
          return GenBool(e->rhs, tt, ft, cj, labels);
        }
        Instr ins;
        ins.op = Op::kCmpJump;
        ins.sub = static_cast<uint8_t>(e->op);
        ArgSrc lsrc, rsrc;
        int32_t lidx, ridx;
        DOEM_RETURN_IF_ERROR(CompileArg(e->lhs, &lsrc, &lidx, &cj->depth));
        DOEM_RETURN_IF_ERROR(CompileArg(e->rhs, &rsrc, &ridx, &cj->depth));
        ins.u1 = static_cast<uint8_t>(lsrc);
        ins.u2 = static_cast<uint8_t>(rsrc);
        ins.a = lidx;
        ins.b = ridx;
        ins.c = tt;
        ins.d = ft;
        cj->code.push_back(ins);
        return Status::OK();
      }
      case Expr::Kind::kNot:
        return GenBool(e->child, ft, tt, cj, labels);
      case Expr::Kind::kLiteral: {
        if (e->literal.kind() != Value::Kind::kBool) {
          return Unsup("non-boolean literal as a condition");
        }
        Instr ins;
        ins.op = Op::kJump;
        ins.a = e->literal.AsBool() ? tt : ft;
        cj->code.push_back(ins);
        return Status::OK();
      }
      default:
        // exists / bare paths / bare variables as conditions stay on the
        // tree walker.
        return Unsup("condition '" + e->ToString() + "'");
    }
  }

  int32_t NewLabel(std::vector<int32_t>* labels) {
    labels->push_back(-1);
    return static_cast<int32_t>(labels->size()) - 1;
  }

  /// Compiles one operand; a register operand raises `*depth` to the
  /// slot that binds it.
  Status CompileArg(const ExprPtr& e, ArgSrc* src, int32_t* idx,
                    int32_t* depth) {
    switch (e->kind) {
      case Expr::Kind::kVar: {
        auto it = regs_.find(e->var);
        if (it == regs_.end()) {
          return Unsup("unbound variable '" + e->var + "'");
        }
        *src = ArgSrc::kReg;
        *idx = it->second.reg;
        if (depth != nullptr) *depth = std::max(*depth, it->second.slot);
        return Status::OK();
      }
      case Expr::Kind::kLiteral:
        *src = ArgSrc::kConst;
        *idx = AddConst(e->literal);
        return Status::OK();
      case Expr::Kind::kTimeRef:
        *src = ArgSrc::kTimeSlot;
        *idx = TimeSlotFor(e->time_ref);
        return Status::OK();
      default:
        // Path operands have existential multi-value semantics the VM
        // does not implement.
        return Unsup("operand '" + e->ToString() + "'");
    }
  }

  Status CompileSelect() {
    for (const SelectItem& item : q_.select) {
      SelectArg sa;
      DOEM_RETURN_IF_ERROR(
          CompileArg(item.expr, &sa.src, &sa.index, nullptr));
      p_.select.push_back(sa);
    }
    return Status::OK();
  }

  // ---- symbolic bound terms (top-level AND conjuncts) -------------------

  void CollectBoundTerms(const ExprPtr& e) {
    if (e == nullptr || e->kind != Expr::Kind::kBinary) return;
    if (e->op == BinOp::kAnd) {
      CollectBoundTerms(e->lhs);
      CollectBoundTerms(e->rhs);
      return;
    }
    BinOp op = e->op;
    const Expr* var = nullptr;
    const Expr* bound = nullptr;
    if (e->lhs->kind == Expr::Kind::kVar) {
      var = e->lhs.get();
      bound = e->rhs.get();
    } else if (e->rhs->kind == Expr::Kind::kVar) {
      var = e->rhs.get();
      bound = e->lhs.get();
      switch (op) {
        case BinOp::kLt: op = BinOp::kGt; break;
        case BinOp::kLe: op = BinOp::kGe; break;
        case BinOp::kGt: op = BinOp::kLt; break;
        case BinOp::kGe: op = BinOp::kLe; break;
        default: break;
      }
    } else {
      return;
    }
    BoundTerm bt;
    bt.var = var->var;
    bt.op = op;
    if (bound->kind == Expr::Kind::kTimeRef) {
      bt.is_time_ref = true;
      bt.time_slot = TimeSlotFor(bound->time_ref);
    } else if (bound->kind == Expr::Kind::kLiteral) {
      switch (bound->literal.kind()) {
        case Value::Kind::kTimestamp:
          bt.literal = bound->literal.AsTime();
          break;
        case Value::Kind::kInt:
          bt.literal = Timestamp(bound->literal.AsInt());
          break;
        case Value::Kind::kString:
          if (!Timestamp::Parse(bound->literal.AsString(), &bt.literal)) {
            return;
          }
          break;
        default:
          return;
      }
    } else {
      return;
    }
    p_.bound_terms.push_back(std::move(bt));
  }

  const NormQuery& q_;
  Program p_;
  std::unordered_map<std::string, RegInfo> regs_;
  std::unordered_map<int, int32_t> time_slots_;
  uint32_t next_reg_ = 0;
};

}  // namespace

Result<Program> Compile(const lorel::NormQuery& q) {
  return Compiler(q).Compile();
}

}  // namespace vm
}  // namespace doem
