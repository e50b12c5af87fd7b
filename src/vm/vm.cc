#include "vm/vm.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "lorel/coerce.h"
#include "vm/cost.h"

namespace doem {
namespace vm {

namespace {

using lorel::AnnotExpr;
using lorel::AnnotKind;
using lorel::EvalOptions;
using lorel::EvalStats;
using lorel::GraphView;
using lorel::QueryResult;
using lorel::RtVal;
using lorel::UpdEntry;
using AnnotStat = GraphView::AnnotStat;

/// One match of an annotated step: the endpoint node plus the annotation
/// payloads its registers bind (arc time for add/rem, node time and
/// old/new values for cre/upd). Matches are stored in the tree walker's
/// candidate order so slot cursors double as emission ranks.
struct RichMatch {
  NodeId node = kInvalidNode;
  bool has_arc_time = false;
  Timestamp arc_time;
  bool has_node_time = false;
  Timestamp node_time;
  bool has_vals = false;
  Value old_value, new_value;
};

struct SlotState {
  // Node-list mode: candidates are bare nodes, either referenced in
  // place (a wide OEM node's label bucket) or materialized into own_nodes.
  const std::vector<NodeId>* nodes = nullptr;
  std::vector<NodeId> own_nodes;
  // Rich mode: annotation matches.
  bool rich_mode = false;
  std::vector<RichMatch> rich;
  // Node <at T>: endpoints bind as NodeAt(n, as_of).
  bool has_as_of = false;
  Timestamp as_of;
  size_t size = 0;
  size_t pos = 0;
  uint32_t cur = 0;

  void Reset() {
    nodes = nullptr;
    own_nodes.clear();
    rich_mode = false;
    rich.clear();
    has_as_of = false;
    size = 0;
    pos = 0;
    cur = 0;
  }
};

class Machine {
 public:
  Machine(const Program& p, const GraphView& view, const EvalOptions& opts)
      : p_(p), view_(view), opts_(opts) {}

  Result<QueryResult> Run(RunInfo* info) {
    // Capability and time-operand preconditions, hoisted to run start.
    // The tree walker only fails when the offending step executes with a
    // non-empty context, so an error here must trigger fallback rather
    // than surface to the caller.
    if (p_.needs_annotations && !view_.SupportsAnnotations()) {
      return Status::Unsupported("vm: view has no annotations");
    }
    if (p_.needs_time_travel && !view_.SupportsTimeTravel()) {
      return Status::Unsupported("vm: view has no time travel");
    }
    if (!p_.time_refs.empty()) {
      if (opts_.polling_times == nullptr) {
        return Status::Unsupported("vm: t[i] without polling times");
      }
      for (int i : p_.time_refs) {
        Timestamp t = ResolveTimeRef(i);
        times_.push_back(t);
        time_values_.push_back(Value::Time(t));
      }
    }
    bounds_ = ReplayBounds(p_, times_);

    std::vector<uint32_t> order(p_.slots.size());
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    bool reordered = false;
    if (p_.reorderable) {
      std::vector<uint32_t> planned = PlanOrder(p_, view_, bounds_);
      reordered = planned != order;
      order = std::move(planned);
    }
    if (info != nullptr) {
      info->reordered = reordered;
      info->order = order;
    }

    QueryResult result;
    result.labels = p_.labels;
    regs_.assign(p_.reg_count, RtVal{});
    slots_.assign(p_.slots.size(), SlotState{});

    Status s;
    if (!reordered) {
      s = Exec(p_.identity_code, /*ranked=*/false, &result);
    } else {
      std::vector<Instr> code = AssembleCode(p_, order);
      s = Exec(code, /*ranked=*/true, &result);
      if (s.ok()) {
        // Restore the tree walker's emission order: ranks are per-slot
        // candidate cursors at original definition positions, so their
        // lexicographic order is exactly the original nesting order.
        std::sort(pending_.begin(), pending_.end(),
                  [](const Pending& a, const Pending& b) {
                    return a.rank < b.rank;
                  });
        result.rows.reserve(pending_.size());
        for (Pending& pe : pending_) result.rows.push_back(std::move(pe.row));
      }
    }
    if (!s.ok()) return s;
    if (opts_.package_results) {
      DOEM_RETURN_IF_ERROR(
          lorel::PackageResult(view_, p_.select.size(), &result));
    }
    // Stats flush only on success; on failure the fallback interpreter
    // run contributes its own counters instead.
    if (opts_.stats != nullptr) {
      opts_.stats->nodes_visited += stats_.nodes_visited;
      opts_.stats->arcs_expanded += stats_.arcs_expanded;
      opts_.stats->steps_index_seeded += stats_.steps_index_seeded;
      opts_.stats->steps_scanned += stats_.steps_scanned;
      opts_.stats->postings_scanned += stats_.postings_scanned;
    }
    return result;
  }

 private:
  struct Pending {
    std::vector<uint32_t> rank;
    std::vector<RtVal> row;
  };

  Timestamp ResolveTimeRef(int i) const {
    const auto& times = *opts_.polling_times;
    int64_t idx = static_cast<int64_t>(times.size()) - 1 + i;
    if (idx < 0 || times.empty()) return Timestamp::NegativeInfinity();
    return times[static_cast<size_t>(idx)];
  }

  // ---- dispatch loop ---------------------------------------------------

  Status Exec(const std::vector<Instr>& code, bool ranked,
              QueryResult* result) {
    size_t pc = 0;
    Value lscratch, rscratch;
    while (true) {
      const Instr& ins = code[pc];
      switch (ins.op) {
        case Op::kHalt:
          return Status::OK();
        case Op::kStepLabel:
        case Op::kStepAny:
        case Op::kStepWild:
        case Op::kSeedAnn:
        case Op::kSeedArc:
        case Op::kLiveAt:
          DOEM_RETURN_IF_ERROR(OpenSlot(static_cast<uint32_t>(ins.a)));
          ++pc;
          break;
        case Op::kLoopNext: {
          SlotState& st = slots_[static_cast<size_t>(ins.a)];
          if (st.pos >= st.size) {
            pc = static_cast<size_t>(ins.b);
            break;
          }
          st.cur = static_cast<uint32_t>(st.pos++);
          BindSlot(static_cast<uint32_t>(ins.a));
          ++pc;
          break;
        }
        case Op::kCmpJump: {
          const Value& l = CmpArg(ins.u1, ins.a, &lscratch);
          const Value& r = CmpArg(ins.u2, ins.b, &rscratch);
          bool t =
              lorel::CompareValues(l, static_cast<lorel::BinOp>(ins.sub), r);
          pc = static_cast<size_t>(t ? ins.c : ins.d);
          break;
        }
        case Op::kJump:
          pc = static_cast<size_t>(ins.a);
          break;
        case Op::kEmit:
          DOEM_RETURN_IF_ERROR(Emit(ranked, result));
          pc = static_cast<size_t>(ins.a);
          break;
      }
    }
  }

  // ---- slot opening ----------------------------------------------------

  Status OpenSlot(uint32_t si) {
    const SlotPlan& sp = p_.slots[si];
    SlotState& st = slots_[si];
    st.Reset();
    switch (sp.open) {
      case Op::kStepLabel: return OpenStepLabel(sp, st);
      case Op::kStepAny: return OpenStepAny(sp, st);
      case Op::kStepWild: return OpenStepWild(sp, st);
      case Op::kSeedAnn: return OpenSeedAnn(sp, st);
      case Op::kSeedArc: return OpenSeedArc(sp, st);
      case Op::kLiveAt: return OpenLiveAt(sp, st);
      default: return Status::Internal("vm: bad open opcode");
    }
  }

  /// Resolves the slot's source node. False = no source (unbound root or
  /// a value binding): the slot is empty and, matching the tree walker's
  /// early return, contributes nothing to the stats.
  bool SlotSource(const SlotPlan& sp, NodeId* src) const {
    if (sp.source_reg < 0) {
      *src = view_.root();
      return *src != kInvalidNode;
    }
    const RtVal& v = regs_[static_cast<size_t>(sp.source_reg)];
    if (v.kind != RtVal::Kind::kNode) return false;
    *src = v.node;
    return true;
  }

  Status OpenStepLabel(const SlotPlan& sp, SlotState& st) {
    NodeId src;
    if (!SlotSource(sp, &src)) return Status::OK();
    const std::vector<NodeId>* kids = view_.ChildrenRef(src, sp.step.label);
    if (kids == nullptr) {
      if (const std::vector<OutArc>* arcs = view_.OutArcsRef(src)) {
        // A node without a label bucket: gather its `label` children into
        // the slot's buffer, which keeps its capacity across opens.
        for (const OutArc& a : *arcs) {
          if (a.label == sp.step.label) st.own_nodes.push_back(a.child);
        }
      } else {
        st.own_nodes = view_.Children(src, sp.step.label);
      }
      kids = &st.own_nodes;
    }
    stats_.arcs_expanded += kids->size();
    stats_.nodes_visited += kids->size();
    st.nodes = kids;
    st.size = kids->size();
    if (sp.step.node_annot) {
      // Only <at T> lands here (cre/upd plain-label steps are kSeedAnn);
      // an annotated step that scanned counts as scanned.
      ++stats_.steps_scanned;
      if (st.size > 0) {
        DOEM_RETURN_IF_ERROR(ResolveAt(sp.at_node, &st.as_of));
        st.has_as_of = true;
      }
    }
    return Status::OK();
  }

  Status OpenStepAny(const SlotPlan& sp, SlotState& st) {
    NodeId src;
    if (!SlotSource(sp, &src)) return Status::OK();
    bool skip_amp = view_.SkipEncodingLabelsInWildcard();
    std::vector<OutArc> scratch;
    for (const OutArc& a : view_.OutArcsOf(src, &scratch)) {
      ++stats_.arcs_expanded;
      if (skip_amp && !a.label.empty() && a.label[0] == '&') continue;
      st.own_nodes.push_back(a.child);
    }
    stats_.nodes_visited += st.own_nodes.size();
    if (sp.step.node_annot) ++stats_.steps_scanned;
    return ExpandNodeAnnot(sp, st);
  }

  Status OpenStepWild(const SlotPlan& sp, SlotState& st) {
    NodeId src;
    if (!SlotSource(sp, &src)) return Status::OK();
    // BFS closure in the tree walker's visit order.
    st.own_nodes.push_back(src);
    std::unordered_set<NodeId> seen{src};
    std::deque<NodeId> queue{src};
    bool skip_amp = view_.SkipEncodingLabelsInWildcard();
    std::vector<OutArc> scratch;
    while (!queue.empty()) {
      NodeId n = queue.front();
      queue.pop_front();
      for (const OutArc& a : view_.OutArcsOf(n, &scratch)) {
        ++stats_.arcs_expanded;
        if (skip_amp && !a.label.empty() && a.label[0] == '&') continue;
        if (seen.insert(a.child).second) {
          st.own_nodes.push_back(a.child);
          queue.push_back(a.child);
        }
      }
    }
    stats_.nodes_visited += st.own_nodes.size();
    if (sp.step.node_annot) ++stats_.steps_scanned;
    return ExpandNodeAnnot(sp, st);
  }

  /// The slot's where-derived [lo, hi] time range when it may seed from
  /// the annotation index this run, or null.
  const std::pair<Timestamp, Timestamp>* SeedRange(const SlotPlan& sp) const {
    if (sp.seed_var.empty()) return nullptr;
    auto b = bounds_.find(sp.seed_var);
    return b == bounds_.end() ? nullptr : &b->second;
  }

  Status OpenSeedAnn(const SlotPlan& sp, SlotState& st) {
    NodeId src;
    if (!SlotSource(sp, &src)) return Status::OK();
    std::optional<std::vector<NodeId>> seeded;
    if (const auto* range = SeedRange(sp)) {
      seeded = view_.AnnotatedChildren(
          src, sp.step.label,
          sp.step.node_annot->kind == AnnotKind::kCre ? AnnotStat::kCre
                                                      : AnnotStat::kUpd,
          range->first, range->second, &stats_.postings_scanned);
    }
    if (seeded) {
      st.own_nodes = std::move(*seeded);
      ++stats_.steps_index_seeded;
    } else {
      st.own_nodes = view_.Children(src, sp.step.label);
      stats_.arcs_expanded += st.own_nodes.size();
      ++stats_.steps_scanned;
    }
    stats_.nodes_visited += st.own_nodes.size();
    return ExpandNodeAnnot(sp, st);
  }

  Status OpenSeedArc(const SlotPlan& sp, SlotState& st) {
    NodeId src;
    if (!SlotSource(sp, &src)) return Status::OK();
    const bool add = sp.step.arc_annot->kind == AnnotKind::kAdd;
    const std::string* label =
        sp.step.wildcard_one ? nullptr : &sp.step.label;
    std::optional<std::vector<std::pair<Timestamp, NodeId>>> seeded;
    if (const auto* range = SeedRange(sp)) {
      seeded = view_.AnnotatedArcs(src, label,
                                   add ? AnnotStat::kAdd : AnnotStat::kRem,
                                   range->first, range->second,
                                   &stats_.postings_scanned);
    }
    std::vector<std::pair<Timestamp, NodeId>> pairs;
    if (seeded) {
      pairs = std::move(*seeded);
      ++stats_.steps_index_seeded;
    } else {
      if (label == nullptr) {
        pairs = add ? view_.AddAnnotatedAny(src) : view_.RemAnnotatedAny(src);
      } else {
        pairs = add ? view_.AddAnnotated(src, *label)
                    : view_.RemAnnotated(src, *label);
      }
      stats_.arcs_expanded += pairs.size();
      ++stats_.steps_scanned;
    }
    stats_.nodes_visited += pairs.size();

    st.rich_mode = true;
    if (!sp.step.node_annot) {
      for (const auto& [t, c] : pairs) {
        RichMatch m;
        m.node = c;
        m.has_arc_time = true;
        m.arc_time = t;
        st.rich.push_back(m);
      }
    } else {
      const AnnotExpr& na = *sp.step.node_annot;
      switch (na.kind) {
        case AnnotKind::kCre: {
          for (const auto& [t, c] : pairs) {
            auto ct = view_.CreTime(c);
            if (!ct) continue;
            RichMatch m;
            m.node = c;
            m.has_arc_time = true;
            m.arc_time = t;
            m.has_node_time = true;
            m.node_time = *ct;
            st.rich.push_back(m);
          }
          break;
        }
        case AnnotKind::kUpd: {
          for (const auto& [t, c] : pairs) {
            for (const UpdEntry& u : view_.UpdEntries(c)) {
              RichMatch m;
              m.node = c;
              m.has_arc_time = true;
              m.arc_time = t;
              m.has_node_time = true;
              m.node_time = u.time;
              m.has_vals = true;
              m.old_value = u.old_value;
              m.new_value = u.new_value;
              st.rich.push_back(m);
            }
          }
          break;
        }
        case AnnotKind::kAt: {
          if (!pairs.empty()) {
            DOEM_RETURN_IF_ERROR(ResolveAt(sp.at_node, &st.as_of));
            st.has_as_of = true;
          }
          for (const auto& [t, c] : pairs) {
            RichMatch m;
            m.node = c;
            m.has_arc_time = true;
            m.arc_time = t;
            st.rich.push_back(m);
          }
          break;
        }
        default:
          return Status::Internal("vm: arc annotation in node position");
      }
    }
    st.size = st.rich.size();
    return Status::OK();
  }

  Status OpenLiveAt(const SlotPlan& sp, SlotState& st) {
    NodeId src;
    if (!SlotSource(sp, &src)) return Status::OK();
    // The walker evaluates the arc at-time before enumeration,
    // unconditionally.
    Timestamp t;
    DOEM_RETURN_IF_ERROR(ResolveAt(sp.at_arc, &t));
    st.own_nodes = sp.step.wildcard_one
                       ? view_.ChildrenAtAny(src, t)
                       : view_.ChildrenAt(src, sp.step.label, t);
    stats_.arcs_expanded += st.own_nodes.size();
    stats_.nodes_visited += st.own_nodes.size();
    ++stats_.steps_scanned;  // annotated, never index-seeded
    return ExpandNodeAnnot(sp, st);
  }

  /// Applies the node annotation (if any) to a node-list candidate set,
  /// in the tree walker's per-candidate order. Stats are already counted.
  Status ExpandNodeAnnot(const SlotPlan& sp, SlotState& st) {
    if (!sp.step.node_annot) {
      st.nodes = &st.own_nodes;
      st.size = st.own_nodes.size();
      return Status::OK();
    }
    const AnnotExpr& a = *sp.step.node_annot;
    switch (a.kind) {
      case AnnotKind::kCre: {
        st.rich_mode = true;
        for (NodeId c : st.own_nodes) {
          auto t = view_.CreTime(c);
          if (!t) continue;  // no cre annotation: no match
          RichMatch m;
          m.node = c;
          m.has_node_time = true;
          m.node_time = *t;
          st.rich.push_back(m);
        }
        st.size = st.rich.size();
        return Status::OK();
      }
      case AnnotKind::kUpd: {
        st.rich_mode = true;
        for (NodeId c : st.own_nodes) {
          for (const UpdEntry& u : view_.UpdEntries(c)) {
            RichMatch m;
            m.node = c;
            m.has_node_time = true;
            m.node_time = u.time;
            m.has_vals = true;
            m.old_value = u.old_value;
            m.new_value = u.new_value;
            st.rich.push_back(m);
          }
        }
        st.size = st.rich.size();
        return Status::OK();
      }
      case AnnotKind::kAt: {
        // Per-candidate in the walker, but context-invariant within one
        // slot opening: resolve once, only when candidates exist (an
        // empty slot never evaluates the time there either).
        if (!st.own_nodes.empty()) {
          DOEM_RETURN_IF_ERROR(ResolveAt(sp.at_node, &st.as_of));
          st.has_as_of = true;
        }
        st.nodes = &st.own_nodes;
        st.size = st.own_nodes.size();
        return Status::OK();
      }
      default:
        return Status::Internal("vm: arc annotation in node position");
    }
  }

  // ---- operand resolution ----------------------------------------------

  /// The walker's EvalTime coercion over a single resolved value.
  Status CoerceTime(const Value& v, Timestamp* out) const {
    switch (v.kind()) {
      case Value::Kind::kTimestamp:
        *out = v.AsTime();
        return Status::OK();
      case Value::Kind::kInt:
        *out = Timestamp(v.AsInt());
        return Status::OK();
      case Value::Kind::kString: {
        if (Timestamp::Parse(v.AsString(), out)) return Status::OK();
        break;
      }
      default:
        break;
    }
    return Status::InvalidArgument("vm: value is not a timestamp");
  }

  Status ResolveAt(const AtTimeArg& arg, Timestamp* out) const {
    switch (arg.kind) {
      case AtTimeArg::Kind::kConst:
        return CoerceTime(p_.const_pool[static_cast<size_t>(arg.index)], out);
      case AtTimeArg::Kind::kTimeSlot:
        *out = times_[static_cast<size_t>(arg.index)];
        return Status::OK();
      case AtTimeArg::Kind::kReg:
        return CoerceTime(RtValue(regs_[static_cast<size_t>(arg.index)]),
                          out);
      default:
        return Status::Internal("vm: <at> operand missing");
    }
  }

  /// The comparable value of a register (the walker's RtValue).
  Value RtValue(const RtVal& v) const {
    if (v.kind == RtVal::Kind::kValue) return v.value;
    if (v.as_of) return view_.ValueAt(v.node, *v.as_of);
    return view_.value(v.node);
  }

  const Value& CmpArg(uint8_t src, int32_t idx, Value* scratch) const {
    switch (static_cast<ArgSrc>(src)) {
      case ArgSrc::kConst:
        return p_.const_pool[static_cast<size_t>(idx)];
      case ArgSrc::kTimeSlot:
        return time_values_[static_cast<size_t>(idx)];
      case ArgSrc::kReg: {
        const RtVal& v = regs_[static_cast<size_t>(idx)];
        if (v.kind == RtVal::Kind::kValue) return v.value;
        *scratch =
            v.as_of ? view_.ValueAt(v.node, *v.as_of) : view_.value(v.node);
        return *scratch;
      }
    }
    return *scratch;
  }

  // ---- binding & emission ----------------------------------------------

  RtVal MakeEnd(const SlotPlan& sp, const SlotState& st, NodeId n) const {
    // bind_value converts through the *current* value even under <at T>,
    // exactly like the walker's EnumDefs conversion.
    if (sp.bind_value) return RtVal::Val(view_.value(n));
    if (st.has_as_of) return RtVal::NodeAt(n, st.as_of);
    return RtVal::Node(n);
  }

  void BindSlot(uint32_t si) {
    const SlotPlan& sp = p_.slots[si];
    SlotState& st = slots_[si];
    if (!st.rich_mode) {
      regs_[static_cast<size_t>(sp.end_reg)] =
          MakeEnd(sp, st, (*st.nodes)[st.cur]);
      return;
    }
    const RichMatch& m = st.rich[st.cur];
    // Walker binding order: arc time, node time, from, to, endpoint last
    // (aliased names resolve last-write-wins).
    if (sp.arc_time_reg >= 0 && m.has_arc_time) {
      regs_[static_cast<size_t>(sp.arc_time_reg)] =
          RtVal::Val(Value::Time(m.arc_time));
    }
    if (sp.node_time_reg >= 0 && m.has_node_time) {
      regs_[static_cast<size_t>(sp.node_time_reg)] =
          RtVal::Val(Value::Time(m.node_time));
    }
    if (sp.from_reg >= 0 && m.has_vals) {
      regs_[static_cast<size_t>(sp.from_reg)] = RtVal::Val(m.old_value);
    }
    if (sp.to_reg >= 0 && m.has_vals) {
      regs_[static_cast<size_t>(sp.to_reg)] = RtVal::Val(m.new_value);
    }
    regs_[static_cast<size_t>(sp.end_reg)] = MakeEnd(sp, st, m.node);
  }

  Status Emit(bool ranked, QueryResult* result) {
    std::vector<RtVal> row;
    row.reserve(p_.select.size());
    for (const SelectArg& sa : p_.select) {
      switch (sa.src) {
        case ArgSrc::kReg:
          row.push_back(regs_[static_cast<size_t>(sa.index)]);
          break;
        case ArgSrc::kConst:
          row.push_back(
              RtVal::Val(p_.const_pool[static_cast<size_t>(sa.index)]));
          break;
        case ArgSrc::kTimeSlot:
          row.push_back(
              RtVal::Val(time_values_[static_cast<size_t>(sa.index)]));
          break;
      }
    }
    std::string key = lorel::RowDedupKey(row);
    if (!ranked) {
      if (!seen_.insert(std::move(key)).second) return Status::OK();
      result->rows.push_back(std::move(row));
      if (opts_.max_rows != 0 && result->rows.size() > opts_.max_rows) {
        return Status::InvalidArgument("query exceeded max_rows limit");
      }
      return Status::OK();
    }
    std::vector<uint32_t> rank(p_.slots.size());
    for (size_t i = 0; i < rank.size(); ++i) rank[i] = slots_[i].cur;
    auto [it, fresh] = seen_ranked_.try_emplace(std::move(key),
                                                pending_.size());
    if (fresh) {
      pending_.push_back(Pending{std::move(rank), std::move(row)});
      // max_rows counts distinct rows, so the crossing point is
      // order-independent.
      if (opts_.max_rows != 0 && pending_.size() > opts_.max_rows) {
        return Status::InvalidArgument("query exceeded max_rows limit");
      }
    } else if (rank < pending_[it->second].rank) {
      // Keep the occurrence the walker would have seen first.
      pending_[it->second].rank = std::move(rank);
      pending_[it->second].row = std::move(row);
    }
    return Status::OK();
  }

  const Program& p_;
  const GraphView& view_;
  const EvalOptions& opts_;
  std::vector<RtVal> regs_;
  std::vector<SlotState> slots_;
  std::vector<Timestamp> times_;
  std::vector<Value> time_values_;
  BoundsMap bounds_;
  EvalStats stats_;
  // Identity-order emission.
  std::unordered_set<std::string> seen_;
  // Reordered emission: rows held back with their ranks until halt.
  std::vector<Pending> pending_;
  std::unordered_map<std::string, size_t> seen_ranked_;
};

}  // namespace

Result<QueryResult> Run(const Program& p, const GraphView& view,
                        const EvalOptions& opts, RunInfo* info) {
  return Machine(p, view, opts).Run(info);
}

}  // namespace vm
}  // namespace doem
