#include "vm/bytecode.h"

namespace doem {
namespace vm {

const char* OpName(Op op) {
  switch (op) {
    case Op::kHalt: return "Halt";
    case Op::kStepLabel: return "StepLabel";
    case Op::kStepAny: return "StepAny";
    case Op::kStepWild: return "StepWild";
    case Op::kSeedAnn: return "SeedAnn";
    case Op::kSeedArc: return "SeedArc";
    case Op::kLiveAt: return "LiveAt";
    case Op::kLoopNext: return "LoopNext";
    case Op::kCmpJump: return "CmpJump";
    case Op::kJump: return "Jump";
    case Op::kEmit: return "Emit";
  }
  return "?";
}

std::vector<Instr> AssembleCode(const Program& p) {
  size_t n = p.slots.size();
  // Conjunct placement: just inside the deepest loop binding one of its
  // inputs; input-free conjuncts run once, before any loop opens.
  std::vector<std::vector<uint32_t>> at_depth(n + 1);
  for (uint32_t ci = 0; ci < p.conjuncts.size(); ++ci) {
    at_depth[static_cast<size_t>(p.conjuncts[ci].depth + 1)].push_back(ci);
  }

  // First pass: lay out program-counter positions.
  size_t pc = 0;
  for (uint32_t ci : at_depth[0]) pc += p.conjuncts[ci].code.size();
  std::vector<size_t> open_pc(n), next_pc(n);
  for (size_t k = 0; k < n; ++k) {
    open_pc[k] = pc++;
    next_pc[k] = pc++;
    for (uint32_t ci : at_depth[k + 1]) pc += p.conjuncts[ci].code.size();
  }
  ++pc;  // emit
  size_t halt_pc = pc;

  // Second pass: emit with all targets known.
  std::vector<Instr> code;
  code.reserve(halt_pc + 1);
  auto emit_conjunct = [&](uint32_t ci, size_t fail_pc) {
    const Conjunct& cj = p.conjuncts[ci];
    int32_t base = static_cast<int32_t>(code.size());
    int32_t pass_pc = base + static_cast<int32_t>(cj.code.size());
    auto fix = [&](int32_t t) -> int32_t {
      if (t == Conjunct::kTargetPass) return pass_pc;
      if (t == Conjunct::kTargetFail) return static_cast<int32_t>(fail_pc);
      return base + t;  // conjunct-local offset
    };
    for (Instr ins : cj.code) {
      if (ins.op == Op::kCmpJump) {
        ins.c = fix(ins.c);
        ins.d = fix(ins.d);
      } else if (ins.op == Op::kJump) {
        ins.a = fix(ins.a);
      }
      code.push_back(ins);
    }
  };

  for (uint32_t ci : at_depth[0]) emit_conjunct(ci, halt_pc);
  for (size_t k = 0; k < n; ++k) {
    Instr open;
    open.op = p.slots[k].open;
    open.a = static_cast<int32_t>(k);
    code.push_back(open);
    Instr next;
    next.op = Op::kLoopNext;
    next.a = static_cast<int32_t>(k);
    next.b = static_cast<int32_t>(k == 0 ? halt_pc : next_pc[k - 1]);
    code.push_back(next);
    for (uint32_t ci : at_depth[k + 1]) emit_conjunct(ci, next_pc[k]);
  }
  Instr emit;
  emit.op = Op::kEmit;
  emit.a = static_cast<int32_t>(n == 0 ? halt_pc : next_pc[n - 1]);
  code.push_back(emit);
  code.push_back(Instr{});  // kHalt
  return code;
}

std::string Program::Disassemble() const {
  std::string out;
  for (size_t i = 0; i < code.size(); ++i) {
    const Instr& ins = code[i];
    out += std::to_string(i) + "\t" + OpName(ins.op);
    switch (ins.op) {
      case Op::kStepLabel:
      case Op::kStepAny:
      case Op::kStepWild:
      case Op::kSeedAnn:
      case Op::kSeedArc:
      case Op::kLiveAt: {
        const SlotPlan& sp = slots[static_cast<size_t>(ins.a)];
        out += " slot=" + std::to_string(ins.a) + " step=" +
               sp.step.ToString() + " -> r" + std::to_string(sp.end_reg);
        if (!sp.seed_var.empty()) out += " seed=" + sp.seed_var;
        break;
      }
      case Op::kLoopNext:
        out += " slot=" + std::to_string(ins.a) + " exhausted->" +
               std::to_string(ins.b);
        break;
      case Op::kCmpJump:
        out += " " + std::string(lorel::BinOpToString(
                         static_cast<lorel::BinOp>(ins.sub))) +
               " t->" + std::to_string(ins.c) + " f->" +
               std::to_string(ins.d);
        break;
      case Op::kJump:
      case Op::kEmit:
        out += " ->" + std::to_string(ins.a);
        break;
      case Op::kHalt:
        break;
    }
    out += "\n";
  }
  return out;
}

}  // namespace vm
}  // namespace doem
