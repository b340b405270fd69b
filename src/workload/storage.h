// Storage traffic over the simulated fabric (§8, §10).
//
// Checkpoint saves are the bandwidth-heavy storage operation: every compute
// host flushes ~30GB x 8 GPUs to the CPFS/OSS cluster. Traffic can ride the
// frontend network (the deployed design) or the backend (the §10-rejected
// alternative), which is exactly what the storage-placement ablation
// compares.
#pragma once

#include <functional>
#include <vector>

#include "flowsim/session.h"
#include "routing/router.h"
#include "topo/frontend.h"

namespace hpn::workload {

class StorageTraffic {
 public:
  using DoneFn = std::function<void()>;

  StorageTraffic(const topo::Cluster& cluster, flowsim::FlowSession& session,
                 routing::Router& router)
      : cluster_{&cluster}, session_{&session}, router_{&router} {}

  /// Write `per_host` of checkpoint data from each listed host to the
  /// storage cluster (striped across storage hosts). Frontend-attached
  /// storage is reached via the host's NIC0; backend-attached storage via
  /// the host's rail NICs (sharing the training fabric).
  void checkpoint_write(const std::vector<int>& hosts,
                        const std::vector<topo::StorageHost>& storage, DataSize per_host,
                        DoneFn done);

  [[nodiscard]] int unroutable() const { return unroutable_; }

 private:
  /// Endpoints a host uses toward storage living on `backend`.
  [[nodiscard]] std::vector<NodeId> host_endpoints(const topo::Host& host,
                                                   bool backend_storage) const;

  const topo::Cluster* cluster_;
  flowsim::FlowSession* session_;
  routing::Router* router_;
  int unroutable_ = 0;
};

}  // namespace hpn::workload
