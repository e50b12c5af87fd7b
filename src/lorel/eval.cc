#include "lorel/eval.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "lorel/coerce.h"

namespace doem {
namespace lorel {

namespace {

using Env = std::unordered_map<std::string, RtVal>;
using Bindings = std::vector<std::pair<std::string, RtVal>>;

class Evaluator {
 public:
  Evaluator(const NormQuery& q, const GraphView& view,
            const EvalOptions& opts)
      : q_(q), view_(view), opts_(opts) {}

  Result<QueryResult> Run() {
    QueryResult result;
    result.labels = q_.labels;
    Env env;
    Status s = EnumDefs(0, &env, &result);
    if (s.ok() && opts_.package_results) {
      s = PackageResult(view_, q_.select.size(), &result);
    }
    FlushStats();
    if (!s.ok()) return s;
    return result;
  }

 private:
  // ---- definition enumeration -----------------------------------------

  Status EnumDefs(size_t idx, Env* env, QueryResult* result) {
    if (idx == q_.defs.size()) return TestAndEmit(*env, result);
    const RangeDef& def = q_.defs[idx];
    auto matches = MatchStep(*env, def.source_var, def.step, def.var);
    if (!matches.ok()) return matches.status();
    for (Bindings& b : *matches) {
      if (def.bind_value) {
        for (auto& [name, val] : b) {
          if (name == def.var && val.kind == RtVal::Kind::kNode) {
            val = RtVal::Val(view_.value(val.node));
          }
        }
      }
      for (auto& [name, val] : b) (*env)[name] = val;
      DOEM_RETURN_IF_ERROR(EnumDefs(idx + 1, env, result));
      for (auto& [name, val] : b) env->erase(name);
    }
    return Status::OK();
  }

  /// Enumerates one step from the source variable's binding, producing
  /// for each match the variable bindings it introduces (the endpoint
  /// node variable plus any annotation variables). Every step scans: the
  /// walker is the reference semantics, and annotation-index seeding is
  /// the bytecode VM's plan choice (DESIGN.md §6c).
  Result<std::vector<Bindings>> MatchStep(const Env& env,
                                          const std::string& source_var,
                                          const PathStep& step,
                                          const std::string& end_var) {
    std::vector<Bindings> out;
    NodeId source;
    if (source_var.empty()) {
      source = view_.root();
      if (source == kInvalidNode) return out;
    } else {
      auto it = env.find(source_var);
      if (it == env.end() || it->second.kind != RtVal::Kind::kNode) {
        // Paths cannot continue from plain values; Lorel-style, this is
        // simply no match rather than an error.
        return out;
      }
      source = it->second.node;
    }

    // 1. Candidate children (and arc-annotation bindings).
    std::vector<std::pair<NodeId, Bindings>> candidates;
    if (!step.arc_annot) {
      if (step.wildcard) {
        for (NodeId n : WildcardClosure(source)) candidates.push_back({n, {}});
      } else if (step.wildcard_one) {
        // '%': one arc with any label.
        bool skip_amp = view_.SkipEncodingLabelsInWildcard();
        std::vector<OutArc> scratch;
        for (const OutArc& a : view_.OutArcsOf(source, &scratch)) {
          ++stats_.arcs_expanded;
          if (skip_amp && !a.label.empty() && a.label[0] == '&') continue;
          candidates.push_back({a.child, {}});
        }
      } else {
        for (NodeId c : view_.Children(source, step.label)) {
          ++stats_.arcs_expanded;
          candidates.push_back({c, {}});
        }
      }
    } else {
      const AnnotExpr& a = *step.arc_annot;
      if (a.kind == AnnotKind::kAt) {
        if (!view_.SupportsTimeTravel()) {
          return Status::Unsupported(
              "virtual <at T> annotations require direct evaluation over a "
              "DOEM database");
        }
        auto t = EvalTime(env, a.at_time);
        if (!t.ok()) return t.status();
        std::vector<NodeId> kids =
            step.wildcard_one ? view_.ChildrenAtAny(source, *t)
                              : view_.ChildrenAt(source, step.label, *t);
        stats_.arcs_expanded += kids.size();
        for (NodeId c : kids) candidates.push_back({c, {}});
      } else {
        if (!view_.SupportsAnnotations()) {
          return Status::Unsupported(
              "annotation expressions require a DOEM database (Chorel); "
              "this view has no annotations");
        }
        std::vector<std::pair<Timestamp, NodeId>> pairs;
        if (step.wildcard_one) {
          pairs = a.kind == AnnotKind::kAdd ? view_.AddAnnotatedAny(source)
                                            : view_.RemAnnotatedAny(source);
        } else {
          pairs = a.kind == AnnotKind::kAdd
                      ? view_.AddAnnotated(source, step.label)
                      : view_.RemAnnotated(source, step.label);
        }
        stats_.arcs_expanded += pairs.size();
        for (auto& [t, c] : pairs) {
          Bindings b;
          if (!a.time_var.empty()) {
            b.emplace_back(a.time_var, RtVal::Val(Value::Time(t)));
          }
          candidates.push_back({c, std::move(b)});
        }
      }
    }

    // EvalStats: endpoint candidates considered; annotation steps scan.
    stats_.nodes_visited += candidates.size();
    if (step.arc_annot || step.node_annot) ++stats_.steps_scanned;

    // 2. Node-annotation filtering/extension on each candidate.
    for (auto& [child, arc_bindings] : candidates) {
      if (!step.node_annot) {
        Bindings b = arc_bindings;
        b.emplace_back(end_var, RtVal::Node(child));
        out.push_back(std::move(b));
        continue;
      }
      const AnnotExpr& a = *step.node_annot;
      switch (a.kind) {
        case AnnotKind::kCre: {
          if (!view_.SupportsAnnotations()) {
            return Status::Unsupported(
                "annotation expressions require a DOEM database");
          }
          auto t = view_.CreTime(child);
          if (!t) break;  // no cre annotation: no match
          Bindings b = arc_bindings;
          if (!a.time_var.empty()) {
            b.emplace_back(a.time_var, RtVal::Val(Value::Time(*t)));
          }
          b.emplace_back(end_var, RtVal::Node(child));
          out.push_back(std::move(b));
          break;
        }
        case AnnotKind::kUpd: {
          if (!view_.SupportsAnnotations()) {
            return Status::Unsupported(
                "annotation expressions require a DOEM database");
          }
          for (const UpdEntry& u : view_.UpdEntries(child)) {
            Bindings b = arc_bindings;
            if (!a.time_var.empty()) {
              b.emplace_back(a.time_var, RtVal::Val(Value::Time(u.time)));
            }
            if (!a.from_var.empty()) {
              b.emplace_back(a.from_var, RtVal::Val(u.old_value));
            }
            if (!a.to_var.empty()) {
              b.emplace_back(a.to_var, RtVal::Val(u.new_value));
            }
            b.emplace_back(end_var, RtVal::Node(child));
            out.push_back(std::move(b));
          }
          break;
        }
        case AnnotKind::kAt: {
          if (!view_.SupportsTimeTravel()) {
            return Status::Unsupported(
                "virtual <at T> annotations require direct evaluation over "
                "a DOEM database");
          }
          auto t = EvalTime(env, a.at_time);
          if (!t.ok()) return t.status();
          Bindings b = arc_bindings;
          b.emplace_back(end_var, RtVal::NodeAt(child, *t));
          out.push_back(std::move(b));
          break;
        }
        default:
          return Status::Internal("arc annotation in node position");
      }
    }
    return out;
  }

  /// '#': every node reachable from `source` by a path of length >= 0.
  std::vector<NodeId> WildcardClosure(NodeId source) {
    std::vector<NodeId> order{source};
    std::unordered_set<NodeId> seen{source};
    std::deque<NodeId> queue{source};
    bool skip_amp = view_.SkipEncodingLabelsInWildcard();
    std::vector<OutArc> scratch;
    while (!queue.empty()) {
      NodeId n = queue.front();
      queue.pop_front();
      for (const OutArc& a : view_.OutArcsOf(n, &scratch)) {
        ++stats_.arcs_expanded;
        if (skip_amp && !a.label.empty() && a.label[0] == '&') continue;
        if (seen.insert(a.child).second) {
          order.push_back(a.child);
          queue.push_back(a.child);
        }
      }
    }
    return order;
  }

  // ---- where-clause evaluation ------------------------------------------

  Result<bool> EvalBool(const Env& env, const ExprPtr& e) {
    switch (e->kind) {
      case Expr::Kind::kLiteral:
        if (e->literal.kind() == Value::Kind::kBool) {
          return e->literal.AsBool();
        }
        return Status::Unsupported("non-boolean literal as a condition");
      case Expr::Kind::kBinary: {
        if (e->op == BinOp::kAnd || e->op == BinOp::kOr) {
          auto l = EvalBool(env, e->lhs);
          if (!l.ok()) return l;
          if (e->op == BinOp::kAnd && !*l) return false;
          if (e->op == BinOp::kOr && *l) return true;
          return EvalBool(env, e->rhs);
        }
        auto lv = OperandValues(env, e->lhs);
        if (!lv.ok()) return lv.status();
        auto rv = OperandValues(env, e->rhs);
        if (!rv.ok()) return rv.status();
        for (const Value& l : *lv) {
          for (const Value& r : *rv) {
            if (CompareValues(l, e->op, r)) return true;
          }
        }
        return false;
      }
      case Expr::Kind::kNot: {
        auto c = EvalBool(env, e->child);
        if (!c.ok()) return c;
        return !*c;
      }
      case Expr::Kind::kExists: {
        auto matches = EnumLazyPath(env, e->exists_path);
        if (!matches.ok()) return matches.status();
        for (const Bindings& extra : *matches) {
          Env env2 = env;
          // The path endpoint binds the exists variable; annotation
          // variables keep their own names.
          for (const auto& [name, val] : extra) {
            env2[name == "$end" ? e->exists_var : name] = val;
          }
          auto p = EvalBool(env2, e->exists_pred);
          if (!p.ok()) return p;
          if (*p) return true;
        }
        return false;
      }
      default:
        return Status::Unsupported("expression '" + e->ToString() +
                                   "' is not a condition");
    }
  }

  /// The candidate comparison values of an operand. Paths yield one value
  /// per match (existential semantics at the enclosing comparison).
  Result<std::vector<Value>> OperandValues(const Env& env,
                                           const ExprPtr& e) {
    switch (e->kind) {
      case Expr::Kind::kLiteral:
        return std::vector<Value>{e->literal};
      case Expr::Kind::kTimeRef: {
        auto t = ResolveTimeRef(e->time_ref);
        if (!t.ok()) return t.status();
        return std::vector<Value>{Value::Time(*t)};
      }
      case Expr::Kind::kVar: {
        auto it = env.find(e->var);
        if (it == env.end()) {
          return Status::Internal("unbound variable '" + e->var + "'");
        }
        return std::vector<Value>{RtValue(it->second)};
      }
      case Expr::Kind::kPath: {
        auto matches = EnumLazyPath(env, e->path);
        if (!matches.ok()) return matches.status();
        std::vector<Value> out;
        for (const Bindings& b : *matches) {
          for (const auto& [name, val] : b) {
            if (name == "$end") out.push_back(RtValue(val));
          }
        }
        return out;
      }
      default:
        return Status::Unsupported("expression '" + e->ToString() +
                                   "' cannot be used as a value");
    }
  }

  /// The comparable value of a runtime binding: plain values as-is; nodes
  /// contribute their (possibly time-traveled) atomic value.
  Value RtValue(const RtVal& v) {
    if (v.kind == RtVal::Kind::kValue) return v.value;
    if (v.as_of) return view_.ValueAt(v.node, *v.as_of);
    return view_.value(v.node);
  }

  Result<Timestamp> EvalTime(const Env& env, const ExprPtr& e) {
    auto vals = OperandValues(env, e);
    if (!vals.ok()) return vals.status();
    for (const Value& v : *vals) {
      switch (v.kind()) {
        case Value::Kind::kTimestamp:
          return v.AsTime();
        case Value::Kind::kInt:
          return Timestamp(v.AsInt());
        case Value::Kind::kString: {
          Timestamp t;
          if (Timestamp::Parse(v.AsString(), &t)) return t;
          break;
        }
        default:
          break;
      }
    }
    return Status::InvalidArgument("'" + e->ToString() +
                                   "' does not evaluate to a timestamp");
  }

  Result<Timestamp> ResolveTimeRef(int i) {
    if (opts_.polling_times == nullptr) {
      return Status::Unsupported(
          "t[i] is only available in QSS filter queries");
    }
    const auto& times = *opts_.polling_times;
    // t[0] = t_k, t[-i] = t_{k-i}; negative infinity when out of range
    // (Section 6).
    int64_t idx = static_cast<int64_t>(times.size()) - 1 + i;
    if (idx < 0 || times.empty()) return Timestamp::NegativeInfinity();
    return times[static_cast<size_t>(idx)];
  }

  /// Enumerates a lazily evaluated path (inside exists). Each match's
  /// bindings contain annotation variables by name and the endpoint under
  /// the reserved name "$end".
  Result<std::vector<Bindings>> EnumLazyPath(const Env& env,
                                             const PathExpr& path) {
    std::vector<std::pair<Env, bool>> frontier;  // env + initialized flag
    std::vector<Bindings> partial{{}};
    std::string source_var;
    size_t first = 0;
    if (path.head_is_var) {
      source_var = path.steps[0].label;
      first = 1;
      if (path.steps.size() == 1) {
        // A bare variable as a range: single match, the variable itself.
        auto it = env.find(source_var);
        if (it == env.end()) return std::vector<Bindings>{};
        return std::vector<Bindings>{{{"$end", it->second}}};
      }
    }
    // Iteratively extend partial bindings step by step.
    for (size_t i = first; i < path.steps.size(); ++i) {
      const PathStep& step = path.steps[i];
      bool is_last = i + 1 == path.steps.size();
      std::string end_name = is_last ? "$end" : "$mid" + std::to_string(i);
      std::vector<Bindings> next;
      for (const Bindings& b : partial) {
        Env env2 = env;
        for (const auto& [name, val] : b) env2[name] = val;
        std::string src;
        if (i == first) {
          src = source_var;  // empty = root
        } else {
          src = "$mid" + std::to_string(i - 1);
        }
        auto matches = MatchStep(env2, src, step, end_name);
        if (!matches.ok()) return matches.status();
        for (Bindings& m : *matches) {
          Bindings merged = b;
          merged.insert(merged.end(), m.begin(), m.end());
          next.push_back(std::move(merged));
        }
      }
      partial = std::move(next);
      if (partial.empty()) break;
    }
    // Strip $mid bindings.
    for (Bindings& b : partial) {
      Bindings cleaned;
      for (auto& kv : b) {
        if (kv.first.rfind("$mid", 0) != 0) cleaned.push_back(kv);
      }
      b = std::move(cleaned);
    }
    return partial;
  }

  // ---- row emission & packaging ---------------------------------------------

  Status TestAndEmit(const Env& env, QueryResult* result) {
    if (q_.where) {
      auto ok = EvalBool(env, q_.where);
      if (!ok.ok()) return ok.status();
      if (!*ok) return Status::OK();
    }
    std::vector<RtVal> row;
    for (const SelectItem& item : q_.select) {
      RtVal v;
      switch (item.expr->kind) {
        case Expr::Kind::kVar: {
          auto it = env.find(item.expr->var);
          if (it == env.end()) {
            return Status::Internal("unbound select variable '" +
                                    item.expr->var + "'");
          }
          v = it->second;
          break;
        }
        case Expr::Kind::kLiteral:
          v = RtVal::Val(item.expr->literal);
          break;
        case Expr::Kind::kTimeRef: {
          auto t = ResolveTimeRef(item.expr->time_ref);
          if (!t.ok()) return t.status();
          v = RtVal::Val(Value::Time(*t));
          break;
        }
        default:
          return Status::Unsupported("select item '" +
                                     item.expr->ToString() +
                                     "' is not supported");
      }
      row.push_back(std::move(v));
    }
    if (!seen_rows_.insert(RowDedupKey(row)).second) return Status::OK();
    result->rows.push_back(std::move(row));
    if (opts_.max_rows != 0 && result->rows.size() > opts_.max_rows) {
      return Status::InvalidArgument("query exceeded max_rows limit");
    }
    return Status::OK();
  }

  void FlushStats() {
    if (opts_.stats == nullptr) return;
    opts_.stats->nodes_visited += stats_.nodes_visited;
    opts_.stats->arcs_expanded += stats_.arcs_expanded;
    opts_.stats->steps_scanned += stats_.steps_scanned;
  }

  const NormQuery& q_;
  const GraphView& view_;
  const EvalOptions& opts_;
  // Profiling tallies, folded into opts_.stats by FlushStats. Kept local
  // so the hot path costs one unconditional increment, not a branch.
  EvalStats stats_;
  std::unordered_set<std::string> seen_rows_;
};

/// Copies result subgraphs into the answer database, preserving node ids
/// and reusing already-copied nodes across rows. Copied nodes keep their
/// source ids, which lie below the view's id floor, and the answer's own
/// nodes lie above it, so a source node was copied iff the answer has it.
class ResultPackager {
 public:
  ResultPackager(const GraphView& view, OemDatabase* answer)
      : view_(view), answer_(answer) {}

  /// Copies the subgraph below `n` (live arcs, current values) into the
  /// answer, unless an earlier row copied `n` already. Breadth-first: the
  /// nodes not copied before are created in discovery order, and each
  /// one's out-arcs are installed at once, in its out-arc order, so the
  /// answer's ArcSeq follows the same walk.
  Status CopyIntoAnswer(NodeId n) {
    if (answer_->HasNode(n)) return Status::OK();
    DOEM_RETURN_IF_ERROR(answer_->CreNode(n, view_.value(n)));
    queue_.assign(1, n);
    for (size_t i = 0; i < queue_.size(); ++i) {
      NodeId cur = queue_[i];
      const std::vector<OutArc>& arcs = view_.OutArcsOf(cur, &scratch_);
      if (arcs.empty()) continue;
      for (const OutArc& a : arcs) {
        if (!answer_->HasNode(a.child)) {
          DOEM_RETURN_IF_ERROR(
              answer_->CreNode(a.child, view_.value(a.child)));
          queue_.push_back(a.child);
        }
      }
      DOEM_RETURN_IF_ERROR(answer_->SetOutArcs(cur, arcs));
    }
    return Status::OK();
  }

 private:
  const GraphView& view_;
  OemDatabase* answer_;
  std::vector<NodeId> queue_;
  std::vector<OutArc> scratch_;
};

}  // namespace

std::string RowDedupKey(const std::vector<RtVal>& row) {
  std::string key;
  for (const RtVal& v : row) key += v.Key() + "\x1f";
  return key;
}

Status PackageResult(const GraphView& view, size_t select_count,
                     QueryResult* result) {
  OemDatabase& answer = result->answer;
  // Copied subgraphs preserve source node ids; allocate the answer's
  // own nodes (root, tuples, value atoms) above the source id space.
  answer.ReserveIdsBelow(view.IdFloor());
  NodeId root = answer.NewComplex();
  DOEM_RETURN_IF_ERROR(answer.SetRoot(root));

  ResultPackager packager(view, &answer);
  bool single = select_count == 1;
  for (const auto& row : result->rows) {
    NodeId parent = root;
    if (!single) {
      parent = answer.NewComplex();
      DOEM_RETURN_IF_ERROR(answer.AddArc(root, "answer", parent));
    }
    for (size_t i = 0; i < row.size(); ++i) {
      const RtVal& v = row[i];
      const std::string& label =
          result->labels[i].empty() ? "value" : result->labels[i];
      NodeId target;
      if (v.kind == RtVal::Kind::kNode) {
        DOEM_RETURN_IF_ERROR(packager.CopyIntoAnswer(v.node));
        target = v.node;
      } else {
        target = answer.NewNode(v.value);
      }
      if (!answer.HasArc(parent, label, target)) {
        DOEM_RETURN_IF_ERROR(answer.AddArc(parent, label, target));
      }
    }
  }
  return Status::OK();
}

std::string RtVal::Key() const {
  if (kind == Kind::kNode) {
    std::string k = "n" + std::to_string(node);
    if (as_of) k += "@" + std::to_string(as_of->ticks);
    return k;
  }
  return "v" + std::to_string(static_cast<int>(value.kind())) + ":" +
         value.ToString();
}

std::string QueryResult::RowsToString() const {
  std::string out;
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ", ";
      out += labels.size() > i ? labels[i] + "=" : "";
      out += row[i].Key();
    }
    out += "\n";
  }
  return out;
}

Result<QueryResult> Evaluate(const NormQuery& q, const GraphView& view,
                             const EvalOptions& opts) {
  return Evaluator(q, view, opts).Run();
}

}  // namespace lorel
}  // namespace doem
