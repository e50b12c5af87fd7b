#include "vm/cost.h"

#include <algorithm>
#include <limits>

namespace doem {
namespace vm {

using lorel::BinOp;
using lorel::GraphView;

BoundsMap ReplayBounds(const Program& p, const std::vector<Timestamp>& times) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  BoundsMap m;
  for (const BoundTerm& bt : p.bound_terms) {
    Timestamp t = bt.is_time_ref ? times[static_cast<size_t>(bt.time_slot)]
                                 : bt.literal;
    auto it = m.find(bt.var);
    if (it == m.end()) {
      it = m.emplace(bt.var,
                     std::make_pair(Timestamp(kMin), Timestamp(kMax)))
               .first;
    }
    auto& [lo, hi] = it->second;
    switch (bt.op) {
      case BinOp::kGt:
        // Strict bounds saturate at the tick limits — a sound widening.
        lo = std::max(lo, Timestamp(t.ticks == kMax ? kMax : t.ticks + 1));
        break;
      case BinOp::kGe:
        lo = std::max(lo, t);
        break;
      case BinOp::kLt:
        hi = std::min(hi, Timestamp(t.ticks == kMin ? kMin : t.ticks - 1));
        break;
      case BinOp::kLe:
        hi = std::min(hi, t);
        break;
      case BinOp::kEq:
        lo = std::max(lo, t);
        hi = std::min(hi, t);
        break;
      default:
        // kNe / kLike constrain nothing; drop the entry if this term was
        // the only mention.
        if (it->second == std::make_pair(Timestamp(kMin), Timestamp(kMax))) {
          m.erase(it);
        }
        break;
    }
  }
  return m;
}

size_t EstimateSlot(const Program& p, uint32_t slot,
                    const lorel::GraphView& view, const BoundsMap& bounds) {
  const SlotPlan& sp = p.slots[slot];
  // A step that will seed from the annotation index costs its posting
  // count in the bound range.
  if (!sp.seed_var.empty()) {
    auto b = bounds.find(sp.seed_var);
    if (b != bounds.end()) {
      GraphView::AnnotStat kind;
      if (sp.open == Op::kSeedArc) {
        kind = sp.step.arc_annot->kind == lorel::AnnotKind::kAdd
                   ? GraphView::AnnotStat::kAdd
                   : GraphView::AnnotStat::kRem;
      } else {
        kind = sp.step.node_annot->kind == lorel::AnnotKind::kCre
                   ? GraphView::AnnotStat::kCre
                   : GraphView::AnnotStat::kUpd;
      }
      auto c = view.AnnotCountInRange(kind, b->second.first, b->second.second);
      if (c) return *c;
    }
  }
  switch (sp.open) {
    case Op::kStepLabel:
    case Op::kSeedAnn:
      if (sp.source_slot < 0) {
        // Root-sourced: the child count is exact.
        NodeId r = view.root();
        if (r == kInvalidNode) return 0;
        return view.ChildCountEstimate(r, sp.step.label);
      }
      return view.LabelArcEstimate(sp.step.label);
    case Op::kStepAny:
    case Op::kStepWild:
      return view.TotalNodeEstimate();
    case Op::kSeedArc:
      return sp.step.wildcard_one ? view.TotalNodeEstimate()
                                  : view.LabelArcEstimate(sp.step.label);
    default:
      return GraphView::kUnknownCardinality;
  }
}

std::vector<uint32_t> PlanOrder(const Program& p, const lorel::GraphView& view,
                                const BoundsMap& bounds) {
  size_t n = p.slots.size();
  std::vector<size_t> est(n);
  for (uint32_t i = 0; i < n; ++i) est[i] = EstimateSlot(p, i, view, bounds);
  std::vector<bool> done(n, false);
  std::vector<uint32_t> order;
  order.reserve(n);
  while (order.size() < n) {
    int best = -1;
    for (size_t i = 0; i < n; ++i) {
      if (done[i]) continue;
      int32_t src = p.slots[i].source_slot;
      if (src >= 0 && !done[static_cast<size_t>(src)]) continue;
      // Ascending scan: a later slot wins only with a strictly smaller
      // estimate, so ties (and all-unknown views) keep original order.
      if (best < 0 || est[i] < est[static_cast<size_t>(best)]) {
        best = static_cast<int>(i);
      }
    }
    done[static_cast<size_t>(best)] = true;
    order.push_back(static_cast<uint32_t>(best));
  }
  return order;
}

}  // namespace vm
}  // namespace doem
