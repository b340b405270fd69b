// Frontend network (§8) and storage placement (§10).
//
// Each HPN host carries one extra 2x200G NIC (NIC0) into a *physically
// separate* classic 3-tier network with 1:1 oversubscription at every
// layer, shared with the CPFS/OSS storage cluster. Management, dataset
// loading, image pulls, checkpoint save/load and inference traffic ride
// here so they can never perturb the training backend.
//
// §10 debates the alternative — storage on the backend (3.2T per host!) —
// and rejects it: external data would need proxies, storage bursts would
// jitter training, and storage hosts would eat backend ToR ports.
// attach_backend_storage() builds that rejected design so the ablation
// bench can measure exactly those effects.
#pragma once

#include "topo/cluster.h"

namespace hpn::topo {

struct StorageHost {
  NodeId host = NodeId::invalid();  ///< kStorage node.
  NicAttachment nic;                ///< Dual-ToR attachment (frontend or backend).
  bool on_backend = false;
};

/// Extends an existing backend cluster with its frontend network: adds a
/// frontend NIC per compute host (Host::frontend_nic), one frontend ToR
/// pair per 16 hosts, 8 Aggs (every ToR wired once to every Agg, 1:1), and
/// 8 storage hosts in trailing segments. Every NIC is dual-port 2x200G;
/// the speeds are `kLinkSpeeds`' access and fabric values. Returns the
/// storage hosts.
std::vector<StorageHost> attach_frontend(Cluster& cluster);

/// The §10-rejected alternative: storage hosts plugged into *backend* ToRs
/// (consuming the backup ports of segment 0's rail ToR pairs, host i on
/// rail i mod rails), at `kLinkSpeeds`' access speed. Their traffic then
/// shares the training fabric.
std::vector<StorageHost> attach_backend_storage(Cluster& cluster, int storage_hosts);

}  // namespace hpn::topo
