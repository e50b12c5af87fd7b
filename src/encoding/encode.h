#ifndef DOEM_ENCODING_ENCODE_H_
#define DOEM_ENCODING_ENCODE_H_

#include <string>

#include "common/result.h"
#include "doem/doem.h"
#include "oem/oem.h"

namespace doem {

/// The DOEM-in-OEM encoding of Section 5.1 (Figure 5).
///
/// Every DOEM object o becomes an encoding object o' (same node id). All
/// encoding objects are complex; special labels start with '&':
///
///   &val          o atomic: arc to an atomic node holding the current
///                 value. o complex: arc from o' to itself.
///   &cre          (if o has cre(t)) arc to an atomic timestamp node.
///   &upd          one complex subobject per upd(t, ov), with &time, &ov,
///                 and the redundant-but-convenient &nv (Section 5.1).
///   l             for each *currently live* DOEM arc (o, l, p): an arc
///                 labeled l from o' to p'.
///   &l-history    for each DOEM arc (o, l, p), live or removed: a complex
///                 history object with &target (arc to p') and one atomic
///                 timestamp subobject per add/rem annotation, labeled
///                 &add / &rem.
///
/// Source labels must not start with '&' (the paper reserves the prefix).

/// True if `label` is one of the encoding's reserved labels or starts
/// with '&'.
bool IsEncodingLabel(const std::string& label);

/// "&" + label + "-history".
std::string HistoryLabelFor(const std::string& label);

/// Inverse of HistoryLabelFor; empty optional-like: returns false if
/// `encoded` is not a history label.
bool LabelFromHistory(const std::string& encoded, std::string* label);

/// Encodes `d` as a plain OEM database. Encoding objects keep their DOEM
/// node ids; auxiliary nodes (value atoms, upd records, history objects)
/// get fresh ids above them.
Result<OemDatabase> EncodeDoem(const DoemDatabase& d);

/// Side tables produced while encoding, for O(delta) incremental
/// maintenance (encode_incremental.h).
struct EncodeTables {
  /// Each DOEM arc (parent, label, child) to the id of its &l-history
  /// object.
  ArcMap<NodeId> arc_history;
};

/// As EncodeDoem, with two extensions used by the incremental maintainer:
/// auxiliary node ids are allocated at or above `aux_floor` (pass 0 for
/// the default just-above-the-DOEM-ids placement), and when `tables` is
/// non-null it receives the arc-history lookup table.
Result<OemDatabase> EncodeDoem(const DoemDatabase& d, NodeId aux_floor,
                               EncodeTables* tables);

/// Reconstructs the DOEM database from its encoding. Validates structural
/// consistency (every encoding object has exactly one &val; current arcs
/// agree with the liveness implied by the history annotations) and
/// returns a database satisfying DecodeDoem(EncodeDoem(d)) == d.
Result<DoemDatabase> DecodeDoem(const OemDatabase& encoded);

}  // namespace doem

#endif  // DOEM_ENCODING_ENCODE_H_
