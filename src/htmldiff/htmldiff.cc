#include "htmldiff/htmldiff.h"

#include "htmldiff/html.h"

namespace doem {
namespace htmldiff {

namespace {

bool IsVoidTag(const std::string& tag) {
  return tag == "br" || tag == "hr" || tag == "img" || tag == "meta" ||
         tag == "link" || tag == "input";
}

// Renders one node of the annotated graph. `status` tells how the arc
// that led here fared: live original, newly added, or removed.
enum class ArcFate { kOriginal, kAdded, kRemoved };

void RenderAnnotated(const DoemDatabase& d, NodeId node,
                     const std::string& label, ArcFate fate,
                     std::string* out) {
  const char* open = nullptr;
  const char* close = nullptr;
  if (fate == ArcFate::kAdded) {
    open = "<ins class=\"hd-new\">";
    close = "</ins>";
  } else if (fate == ArcFate::kRemoved) {
    open = "<del class=\"hd-del\">";
    close = "</del>";
  }
  if (open != nullptr) out->append(open);

  if (label == "text") {
    const Value& v = d.CurrentValue(node);
    auto upds = d.UpdRecords(node);
    if (!upds.empty()) {
      out->append("<span class=\"hd-upd\" data-old=\"")
          .append(EscapeHtml(upds.front().old_value.kind() ==
                                     Value::Kind::kString
                                 ? upds.front().old_value.AsString()
                                 : upds.front().old_value.ToString()))
          .append("\">");
    }
    if (v.kind() == Value::Kind::kString) {
      out->append(EscapeHtml(v.AsString()));
    }
    if (!upds.empty()) out->append("</span>");
  } else {
    out->append("<").append(label);
    for (const OutArc& a : d.graph().OutArcs(node)) {
      if (a.label.size() > 1 && a.label[0] == '@' &&
          d.ArcCurrentlyLive(node, a.label, a.child)) {
        const Value& v = d.CurrentValue(a.child);
        out->append(" ").append(a.label.substr(1)).append("=\"");
        if (v.kind() == Value::Kind::kString) {
          out->append(EscapeHtml(v.AsString()));
        }
        out->append("\"");
      }
    }
    out->append(">");
    for (const OutArc& a : d.graph().OutArcs(node)) {
      if (!a.label.empty() && a.label[0] == '@') continue;
      ArcFate child_fate = ArcFate::kOriginal;
      const AnnotationList& annots =
          d.ArcAnnotations(node, a.label, a.child);
      if (!annots.empty()) {
        child_fate = annots.back().kind == Annotation::Kind::kRem
                         ? ArcFate::kRemoved
                         : ArcFate::kAdded;
      }
      // Inside an inserted or deleted region, nested arcs inherit the
      // region's fate; don't double-wrap.
      if (fate != ArcFate::kOriginal) child_fate = ArcFate::kOriginal;
      RenderAnnotated(d, a.child, a.label, child_fate, out);
    }
    if (!IsVoidTag(label)) {
      out->append("</").append(label).append(">");
    }
  }
  if (close != nullptr) out->append(close);
}

}  // namespace

std::string RenderMarkedUp(const DoemDatabase& d) {
  std::string out;
  NodeId root = d.root();
  if (root == kInvalidNode) return out;
  for (const OutArc& a : d.graph().OutArcs(root)) {
    ArcFate fate = ArcFate::kOriginal;
    const AnnotationList& annots = d.ArcAnnotations(root, a.label, a.child);
    if (!annots.empty()) {
      fate = annots.back().kind == Annotation::Kind::kRem
                 ? ArcFate::kRemoved
                 : ArcFate::kAdded;
    }
    RenderAnnotated(d, a.child, a.label, fate, &out);
  }
  return out;
}

Result<HtmlDiffResult> HtmlDiff(const std::string& old_html,
                                const std::string& new_html) {
  auto old_db = ParseHtml(old_html);
  if (!old_db.ok()) {
    return Status(old_db.status().code(),
                  "old version: " + old_db.status().message());
  }
  auto new_db = ParseHtml(new_html);
  if (!new_db.ok()) {
    return Status(new_db.status().code(),
                  "new version: " + new_db.status().message());
  }
  // No Validate() here: ParseHtml builds a rooted tree in which every
  // node is created under an existing complex parent, which is what
  // DiffSnapshots requires.
  auto delta = DiffSnapshots(*old_db, *new_db, DiffMode::kStructural);
  if (!delta.ok()) return delta.status();

  HtmlDiffResult result;
  result.stats = SummarizeChanges(*delta);
  auto d = DoemDatabase::FromSnapshot(std::move(old_db).value());
  if (!d.ok()) return d.status();
  DOEM_RETURN_IF_ERROR(d->ApplyChangeSet(Timestamp(1), *delta));
  result.doem = std::move(d).value();
  result.markup = RenderMarkedUp(result.doem);
  return result;
}

}  // namespace htmldiff
}  // namespace doem
