// Failure blast-radius analysis (§2.3).
//
// "The failure of a ToR can make dozens or even hundreds of hosts
// unavailable" — under single-ToR. Dual-ToR turns the same event into
// degradation. This utility removes one component at a time and counts the
// hosts that end up isolated (some NIC with no live port: the synchronous
// job halts) vs merely degraded (lost port bandwidth), quantifying each
// architecture's failure domains structurally.
#pragma once

#include <string>
#include <vector>

#include "topo/cluster.h"

namespace hpn::topo {

struct BlastRadius {
  std::string component;   ///< What failed ("ToR", "Agg", "access link"...).
  int isolated_hosts = 0;  ///< Hosts with an unreachable NIC (job halts).
  int degraded_hosts = 0;  ///< Hosts that lost some port bandwidth.
  double bandwidth_lost_fraction = 0.0;  ///< Cluster access bandwidth lost.
};

/// Blast radius of failing node `victim` (all its links down). The cluster
/// is restored before returning.
BlastRadius blast_radius_of_node(Cluster& cluster, NodeId victim);

/// Blast radius of one access-link failure on (host, rail, port).
BlastRadius blast_radius_of_access(Cluster& cluster, int host, int rail, int port);

/// Worst-case radius over every node of `kind` (exhaustive sweep).
BlastRadius worst_blast_radius(Cluster& cluster, NodeKind kind);

}  // namespace hpn::topo
