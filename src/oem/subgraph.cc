#include "oem/subgraph.h"

#include <deque>

namespace doem {

Result<std::unordered_map<NodeId, NodeId>> CopyReachable(
    const OemDatabase& src, const std::vector<NodeId>& roots,
    OemDatabase* dst, bool preserve_ids) {
  std::unordered_map<NodeId, NodeId> map;
  std::deque<NodeId> queue;
  for (NodeId r : roots) {
    if (!src.HasNode(r)) {
      return Status::NotFound("CopyReachable: no node " + std::to_string(r));
    }
    if (!map.contains(r)) {
      map.emplace(r, kInvalidNode);
      queue.push_back(r);
    }
  }
  // First pass: create all nodes.
  std::vector<NodeId> order;
  while (!queue.empty()) {
    NodeId n = queue.front();
    queue.pop_front();
    order.push_back(n);
    for (const OutArc& a : src.OutArcs(n)) {
      if (!map.contains(a.child)) {
        map.emplace(a.child, kInvalidNode);
        queue.push_back(a.child);
      }
    }
  }
  for (NodeId n : order) {
    const Value& v = *src.GetValue(n);
    if (preserve_ids) {
      DOEM_RETURN_IF_ERROR(dst->CreNode(n, v));
      map[n] = n;
    } else {
      map[n] = dst->NewNode(v);
    }
  }
  // Second pass: each node's out-arcs at once.
  for (NodeId n : order) {
    const std::vector<OutArc>& out = src.OutArcs(n);
    if (out.empty()) continue;
    std::vector<OutArc> arcs = out;
    for (OutArc& a : arcs) a.child = map[a.child];
    DOEM_RETURN_IF_ERROR(dst->SetOutArcs(map[n], std::move(arcs)));
  }
  return map;
}

}  // namespace doem
