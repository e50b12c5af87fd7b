#include "encoding/encode.h"

#include <algorithm>
#include <map>

namespace doem {

bool IsEncodingLabel(const std::string& label) {
  return !label.empty() && label[0] == '&';
}

std::string HistoryLabelFor(const std::string& label) {
  return "&" + label + "-history";
}

bool LabelFromHistory(const std::string& encoded, std::string* label) {
  constexpr std::string_view kSuffix = "-history";
  if (encoded.size() <= 1 + kSuffix.size() || encoded[0] != '&') {
    return false;
  }
  if (encoded.compare(encoded.size() - kSuffix.size(), kSuffix.size(),
                      kSuffix) != 0) {
    return false;
  }
  *label = encoded.substr(1, encoded.size() - 1 - kSuffix.size());
  return true;
}

Result<OemDatabase> EncodeDoem(const DoemDatabase& d) {
  return EncodeDoem(d, 0, nullptr);
}

Result<OemDatabase> EncodeDoem(const DoemDatabase& d, NodeId aux_floor,
                               EncodeTables* tables) {
  const OemDatabase& g = d.graph();
  if (g.root() == kInvalidNode) {
    return Status::InvalidArgument("EncodeDoem: database has no root");
  }
  OemDatabase out;
  // Encoding objects reuse the DOEM ids; auxiliary ids start above them
  // (or above aux_floor, when the caller reserves an id band so future
  // DOEM ids cannot collide with auxiliary ids).
  for (NodeId n : g.NodeIds()) {
    if (n >= aux_floor && aux_floor != 0) {
      return Status::InvalidArgument(
          "EncodeDoem: node id " + std::to_string(n) +
          " at or above the auxiliary id floor");
    }
    DOEM_RETURN_IF_ERROR(out.CreNode(n, Value::Complex()));
  }
  out.ReserveIdsBelow(std::max(g.PeekNextId(), aux_floor));

  for (NodeId n : g.NodeIds()) {
    // &val.
    const Value& v = d.CurrentValue(n);
    if (v.is_complex()) {
      DOEM_RETURN_IF_ERROR(out.AddArc(n, "&val", n));
    } else {
      DOEM_RETURN_IF_ERROR(out.AddArc(n, "&val", out.NewNode(v)));
    }
    // &cre.
    if (auto t = d.CreTime(n)) {
      DOEM_RETURN_IF_ERROR(
          out.AddArc(n, "&cre", out.NewNode(Value::Time(*t))));
    }
    // &upd records.
    for (const UpdRecord& u : d.UpdRecords(n)) {
      NodeId rec = out.NewComplex();
      DOEM_RETURN_IF_ERROR(out.AddArc(n, "&upd", rec));
      DOEM_RETURN_IF_ERROR(
          out.AddArc(rec, "&time", out.NewNode(Value::Time(u.time))));
      DOEM_RETURN_IF_ERROR(
          out.AddArc(rec, "&ov", out.NewNode(u.old_value)));
      DOEM_RETURN_IF_ERROR(
          out.AddArc(rec, "&nv", out.NewNode(u.new_value)));
    }
    // Arcs: current snapshot arcs by their own label, plus one history
    // object per physical arc.
    for (const OutArc& a : g.OutArcs(n)) {
      if (IsEncodingLabel(a.label)) {
        return Status::InvalidArgument(
            "EncodeDoem: source label '" + a.label +
            "' uses the reserved '&' prefix");
      }
      if (d.ArcCurrentlyLive(n, a.label, a.child)) {
        DOEM_RETURN_IF_ERROR(out.AddArc(n, a.label, a.child));
      }
      NodeId hist = out.NewComplex();
      if (tables != nullptr) {
        tables->arc_history[Arc{n, a.label, a.child}] = hist;
      }
      DOEM_RETURN_IF_ERROR(out.AddArc(n, HistoryLabelFor(a.label), hist));
      DOEM_RETURN_IF_ERROR(out.AddArc(hist, "&target", a.child));
      for (const Annotation& ann : d.ArcAnnotations(n, a.label, a.child)) {
        const char* label =
            ann.kind == Annotation::Kind::kAdd ? "&add" : "&rem";
        DOEM_RETURN_IF_ERROR(
            out.AddArc(hist, label, out.NewNode(Value::Time(ann.time))));
      }
    }
  }
  DOEM_RETURN_IF_ERROR(out.SetRoot(g.root()));
  // Deleted DOEM objects are unreachable from the root in the DOEM graph
  // but their encodings remain reachable only if some history object
  // points at them; both are retained in the encoding, matching the DOEM
  // graph's physical content. Sanity: nothing should be dangling.
  out.CollectGarbage();
  return out;
}

namespace {

Status Err(const std::string& msg) {
  return Status::InvalidArgument("DecodeDoem: " + msg);
}

}  // namespace

Result<DoemDatabase> DecodeDoem(const OemDatabase& enc) {
  if (enc.root() == kInvalidNode) {
    return Err("encoding has no root");
  }
  // Encoding objects are exactly the nodes with a &val arc.
  std::vector<NodeId> objects;
  for (NodeId n : enc.NodeIds()) {
    if (!enc.Children(n, "&val").empty()) objects.push_back(n);
  }

  OemDatabase graph;
  std::unordered_map<NodeId, AnnotationList> node_annots;
  std::vector<std::pair<Arc, AnnotationList>> arc_annots;

  // Pass 1: values and node annotations.
  for (NodeId n : objects) {
    std::vector<NodeId> vals = enc.Children(n, "&val");
    if (vals.size() != 1) return Err("node with multiple &val arcs");
    Value value;
    if (vals[0] == n) {
      value = Value::Complex();
    } else {
      const Value* v = enc.GetValue(vals[0]);
      if (v == nullptr || v->is_complex()) {
        return Err("&val target is not atomic");
      }
      value = *v;
    }
    DOEM_RETURN_IF_ERROR(graph.CreNode(n, value));

    AnnotationList annots;
    std::vector<NodeId> cres = enc.Children(n, "&cre");
    if (cres.size() > 1) return Err("node with multiple &cre arcs");
    if (cres.size() == 1) {
      const Value* t = enc.GetValue(cres[0]);
      if (t == nullptr || t->kind() != Value::Kind::kTimestamp) {
        return Err("&cre value is not a timestamp");
      }
      annots.push_back(Annotation::Cre(t->AsTime()));
    }
    std::vector<Annotation> upds;
    for (NodeId rec : enc.Children(n, "&upd")) {
      NodeId tn = enc.Child(rec, "&time");
      NodeId ovn = enc.Child(rec, "&ov");
      if (tn == kInvalidNode || ovn == kInvalidNode) {
        return Err("&upd record missing &time or &ov");
      }
      const Value* t = enc.GetValue(tn);
      const Value* ov = enc.GetValue(ovn);
      if (t == nullptr || t->kind() != Value::Kind::kTimestamp) {
        return Err("&upd &time is not a timestamp");
      }
      upds.push_back(Annotation::Upd(t->AsTime(), *ov));
    }
    std::sort(upds.begin(), upds.end(),
              [](const Annotation& a, const Annotation& b) {
                return a.time < b.time;
              });
    annots.insert(annots.end(), upds.begin(), upds.end());
    if (!annots.empty()) node_annots[n] = std::move(annots);
  }

  // Pass 2: arcs from history objects; cross-check current arcs.
  for (NodeId n : objects) {
    std::map<std::pair<std::string, NodeId>, bool> current;  // live arcs
    for (const OutArc& a : enc.OutArcs(n)) {
      if (!IsEncodingLabel(a.label)) {
        current[{a.label, a.child}] = false;  // seen, not yet matched
      }
    }
    for (const OutArc& a : enc.OutArcs(n)) {
      std::string label;
      if (!LabelFromHistory(a.label, &label)) {
        // The reserved '&' namespace on an encoding object is closed:
        // &val/&cre/&upd structure plus &<label>-history objects. Anything
        // else is a malformed encoding; silently dropping it would decode
        // to a database that does not re-encode to the same text.
        if (IsEncodingLabel(a.label) && a.label != "&val" &&
            a.label != "&cre" && a.label != "&upd") {
          return Err("unknown reserved label '" + a.label +
                     "' on encoding object");
        }
        continue;
      }
      if (IsEncodingLabel(label)) {
        // E.g. "&&x-history": the decoded arc label would itself sit in
        // the reserved namespace, which no DOEM database can round-trip.
        return Err("history label '" + a.label +
                   "' decodes to reserved arc label '" + label + "'");
      }
      NodeId hist = a.child;
      NodeId target = enc.Child(hist, "&target");
      if (target == kInvalidNode) return Err("history object lacks &target");
      if (!graph.HasNode(target)) {
        return Err("history &target is not an encoding object");
      }
      AnnotationList annots;
      for (const OutArc& ha : enc.OutArcs(hist)) {
        Annotation::Kind kind;
        if (ha.label == "&add") {
          kind = Annotation::Kind::kAdd;
        } else if (ha.label == "&rem") {
          kind = Annotation::Kind::kRem;
        } else {
          continue;
        }
        const Value* t = enc.GetValue(ha.child);
        if (t == nullptr || t->kind() != Value::Kind::kTimestamp) {
          return Err("history timestamp is not a timestamp value");
        }
        annots.push_back(Annotation{kind, t->AsTime(), Value()});
      }
      std::sort(annots.begin(), annots.end(),
                [](const Annotation& a1, const Annotation& a2) {
                  return a1.time < a2.time;
                });
      // AddArcForce: the decoded node may be atomic *now* while its
      // removed arcs remain in the raw graph.
      DOEM_RETURN_IF_ERROR(graph.AddArcForce(n, label, target));
      bool live = annots.empty() ||
                  annots.back().kind == Annotation::Kind::kAdd;
      auto it = current.find({label, target});
      if (live != (it != current.end())) {
        return Err("current arc (" + std::to_string(n) + ", " + label +
                   ", " + std::to_string(target) +
                   ") inconsistent with its history annotations");
      }
      if (it != current.end()) it->second = true;
      arc_annots.emplace_back(Arc{n, label, target}, std::move(annots));
    }
    for (const auto& [key, matched] : current) {
      if (!matched) {
        return Err("current arc (" + std::to_string(n) + ", " + key.first +
                   ") has no history object");
      }
    }
  }

  DOEM_RETURN_IF_ERROR(graph.SetRoot(enc.root()));
  // The decoded database's id space is exactly its real objects; CreNode
  // above already advanced the watermark past the largest one. Inheriting
  // enc.PeekNextId() here would also absorb the encoder's synthetic aux
  // ids, so an encode -> decode -> encode round trip would allocate aux
  // ids at a higher floor each cycle and the re-encoded text would not be
  // byte-stable (EncodeDoem keeps aux ids collision-free on its own via
  // aux_floor).
  return DoemDatabase::FromParts(std::move(graph), std::move(node_annots),
                                 std::move(arc_annots));
}

}  // namespace doem
