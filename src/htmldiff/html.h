#ifndef DOEM_HTMLDIFF_HTML_H_
#define DOEM_HTMLDIFF_HTML_H_

#include <string>

#include "common/result.h"
#include "oem/oem.h"

namespace doem {
namespace htmldiff {

/// Parses an HTML subset into an OEM database, the first step of the
/// paper's htmldiff pipeline (Section 1.1): element tags become complex
/// objects whose label is the tag name, text runs become atomic string
/// subobjects under the label "text", and attributes become atomic string
/// subobjects under "@<name>". The database root is an anonymous complex
/// node with one arc per top-level element.
///
/// Supported subset: properly nested elements, void elements (br, hr,
/// img, meta, link, input), self-closing syntax, quoted/unquoted
/// attributes, comments, doctype, and the entities &amp; &lt; &gt;
/// &quot; &#NN; &nbsp;.
///
/// A returned database is well-formed (Validate() passes) by
/// construction: a tree whose every node is created under an existing
/// complex parent.
Result<OemDatabase> ParseHtml(const std::string& html);

/// Renders an OEM tree produced by ParseHtml back to HTML (used by the
/// marked-up diff renderer). Children render in arc insertion order.
std::string RenderHtml(const OemDatabase& db);

/// Escapes text content for inclusion in HTML.
std::string EscapeHtml(const std::string& text);

}  // namespace htmldiff
}  // namespace doem

#endif  // DOEM_HTMLDIFF_HTML_H_
