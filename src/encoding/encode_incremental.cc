#include "encoding/encode_incremental.h"

namespace doem {

Result<IncrementalEncoder> IncrementalEncoder::Create(const DoemDatabase& d) {
  IncrementalEncoder e;
  EncodeTables tables;
  auto enc = EncodeDoem(d, kAuxIdBase, &tables);
  if (!enc.ok()) return enc.status();
  e.enc_ = std::move(enc).value();
  e.arc_history_ = std::move(tables.arc_history);
  return e;
}

Status IncrementalEncoder::ApplyDelta(const DoemDatabase& d, Timestamp t,
                                      const ChangeSet& ops) {
  for (const ChangeOp& op : CanonicalOrder(ops)) {
    ++stats_.patch_ops;
    Status s;
    switch (op.kind) {
      case ChangeOp::Kind::kCreNode:
        s = PatchCreNode(d, t, op);
        break;
      case ChangeOp::Kind::kUpdNode:
        s = PatchUpdNode(d, t, op);
        break;
      case ChangeOp::Kind::kAddArc:
        s = PatchAddArc(d, t, op);
        break;
      case ChangeOp::Kind::kRemArc:
        s = PatchRemArc(t, op);
        break;
    }
    if (!s.ok()) {
      return Status(s.code(),
                    "ApplyDelta: " + op.ToString() + ": " + s.message());
    }
  }
  return Status::OK();
}

Status IncrementalEncoder::PatchCreNode(const DoemDatabase& d, Timestamp t,
                                        const ChangeOp& op) {
  // Stillborn nodes were physically pruned from the post-state; a fresh
  // encode never sees them, so neither do we.
  if (!d.graph().HasNode(op.node)) return Status::OK();
  if (op.node >= kAuxIdBase) {
    return Status::InvalidArgument("node id in the auxiliary id band");
  }
  DOEM_RETURN_IF_ERROR(enc_.CreNode(op.node, Value::Complex()));
  const Value& v = d.CurrentValue(op.node);
  if (v.is_complex()) {
    DOEM_RETURN_IF_ERROR(enc_.AddArc(op.node, "&val", op.node));
  } else {
    DOEM_RETURN_IF_ERROR(enc_.AddArc(op.node, "&val", NewAux(v)));
  }
  return enc_.AddArc(op.node, "&cre", NewAux(Value::Time(t)));
}

Status IncrementalEncoder::PatchUpdNode(const DoemDatabase& d, Timestamp t,
                                        const ChangeOp& op) {
  if (!d.graph().HasNode(op.node)) return Status::OK();
  const AnnotationList& annots = d.NodeAnnotations(op.node);
  if (annots.empty() || annots.back().kind != Annotation::Kind::kUpd ||
      annots.back().time != t) {
    return Status::Internal("post-state lacks the upd annotation");
  }
  const Value& ov = annots.back().old_value;
  const Value& nv = d.CurrentValue(op.node);

  // Re-point &val. The predecessor upd record's &nv already holds ov (it
  // was the then-current value), so only this arc and the new record
  // change.
  NodeId cur = enc_.Child(op.node, "&val");
  if (cur == kInvalidNode) {
    return Status::Internal("encoding object lacks &val");
  }
  if (cur != op.node && !nv.is_complex()) {
    // Atomic -> atomic: update the value atom in place.
    DOEM_RETURN_IF_ERROR(enc_.UpdNode(cur, nv));
  } else {
    DOEM_RETURN_IF_ERROR(enc_.RemArc(op.node, "&val", cur));
    if (cur != op.node) DOEM_RETURN_IF_ERROR(enc_.EraseNodeForce(cur));
    if (nv.is_complex()) {
      DOEM_RETURN_IF_ERROR(enc_.AddArc(op.node, "&val", op.node));
    } else {
      DOEM_RETURN_IF_ERROR(enc_.AddArc(op.node, "&val", NewAux(nv)));
    }
  }

  NodeId rec = NewAuxComplex();
  DOEM_RETURN_IF_ERROR(enc_.AddArc(op.node, "&upd", rec));
  DOEM_RETURN_IF_ERROR(
      enc_.AddArc(rec, "&time", NewAux(Value::Time(t))));
  DOEM_RETURN_IF_ERROR(enc_.AddArc(rec, "&ov", NewAux(ov)));
  return enc_.AddArc(rec, "&nv", NewAux(nv));
}

Status IncrementalEncoder::PatchAddArc(const DoemDatabase& d, Timestamp t,
                                       const ChangeOp& op) {
  const Arc& a = op.arc;
  // Arcs incident to a stillborn node were pruned with it.
  if (!d.graph().HasArc(a.parent, a.label, a.child)) return Status::OK();
  if (IsEncodingLabel(a.label)) {
    return Status::InvalidArgument("source label '" + a.label +
                                   "' uses the reserved '&' prefix");
  }
  DOEM_RETURN_IF_ERROR(enc_.AddArc(a.parent, a.label, a.child));
  const AnnotationList& annots =
      d.ArcAnnotations(a.parent, a.label, a.child);
  if (annots.size() == 1) {
    // First annotation ever: a brand-new physical arc, new history object.
    NodeId hist = NewAuxComplex();
    arc_history_[a] = hist;
    DOEM_RETURN_IF_ERROR(
        enc_.AddArc(a.parent, HistoryLabelFor(a.label), hist));
    DOEM_RETURN_IF_ERROR(enc_.AddArc(hist, "&target", a.child));
    return enc_.AddArc(hist, "&add", NewAux(Value::Time(t)));
  }
  // Re-add of a previously removed arc: append to its history object,
  // and move the history arc to the end of the parent's lists, as the
  // re-added arc moved in the DOEM graph (a fresh encode lists it there).
  auto it = arc_history_.find(a);
  if (it == arc_history_.end()) {
    return Status::Internal("re-added arc has no history object");
  }
  const std::string history_label = HistoryLabelFor(a.label);
  DOEM_RETURN_IF_ERROR(enc_.RemArc(a.parent, history_label, it->second));
  DOEM_RETURN_IF_ERROR(enc_.AddArc(a.parent, history_label, it->second));
  return enc_.AddArc(it->second, "&add", NewAux(Value::Time(t)));
}

NodeId IncrementalEncoder::NewAux(const Value& v) {
  ++stats_.aux_allocations;
  return enc_.NewNode(v);
}

NodeId IncrementalEncoder::NewAuxComplex() {
  ++stats_.aux_allocations;
  return enc_.NewComplex();
}

Status IncrementalEncoder::PatchRemArc(Timestamp t, const ChangeOp& op) {
  const Arc& a = op.arc;
  // Create indexed every physical arc's history object, and PatchAddArc
  // indexes new ones, so a live arc always has an entry.
  auto it = arc_history_.find(a);
  if (it == arc_history_.end()) {
    return Status::Internal("removed arc has no history object");
  }
  DOEM_RETURN_IF_ERROR(enc_.RemArc(a.parent, a.label, a.child));
  return enc_.AddArc(it->second, "&rem", NewAux(Value::Time(t)));
}

}  // namespace doem
