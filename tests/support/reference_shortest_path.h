// Test-only oracle: the scenario materializer's original private BFS router,
// kept verbatim (renamed into namespace hpn::reference) so the one router
// that replaced it, routing::Router::first_path via fuzz::route_flows, can
// be differentially tested against the paths every fuzz corpus entry, serve
// golden and bench result was produced with.
#pragma once

#include <algorithm>
#include <vector>

#include "topo/topology.h"

namespace hpn::reference {

inline bool is_switch(topo::NodeKind kind) {
  return kind == topo::NodeKind::kTor || kind == topo::NodeKind::kAgg ||
         kind == topo::NodeKind::kCore;
}

/// Shortest path src -> dst over up access/fabric links, traversing only
/// switch nodes in between (a path through another NIC is physically
/// meaningless and, under PFC, can manufacture buffer cycles). BFS visits
/// adjacency in link-id order, so the result is deterministic.
inline std::vector<LinkId> bfs_path(const topo::Topology& t, NodeId src, NodeId dst) {
  if (src == dst) return {};
  std::vector<LinkId> via(t.node_count(), LinkId::invalid());
  std::vector<char> seen(t.node_count(), 0);
  std::vector<NodeId> queue{src};
  seen[src.index()] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId at = queue[head];
    for (const LinkId lid : t.out_links(at)) {
      const topo::Link& l = t.link(lid);
      if (!l.up || !t.is_up(l.reverse)) continue;
      if (l.kind != topo::LinkKind::kAccess && l.kind != topo::LinkKind::kFabric) {
        continue;
      }
      if (seen[l.dst.index()] != 0) continue;
      if (l.dst != dst && !is_switch(t.node(l.dst).kind)) continue;
      seen[l.dst.index()] = 1;
      via[l.dst.index()] = lid;
      if (l.dst == dst) {
        std::vector<LinkId> path;
        for (NodeId n = dst; n != src;) {
          const LinkId step = via[n.index()];
          path.push_back(step);
          n = t.link(step).src;
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      queue.push_back(l.dst);
    }
  }
  return {};
}

}  // namespace hpn::reference
