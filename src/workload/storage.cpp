#include "workload/storage.h"

#include <memory>

#include "common/check.h"

namespace hpn::workload {

std::vector<NodeId> StorageTraffic::host_endpoints(const topo::Host& host,
                                                   bool backend_storage) const {
  std::vector<NodeId> out;
  if (backend_storage) {
    // Backend-attached storage shares the training fabric: traffic leaves
    // through the rail NICs (and contends with collective traffic there).
    for (const topo::NicAttachment& att : host.nics) out.push_back(att.nic);
  } else {
    HPN_CHECK_MSG(host.frontend_nic.is_valid(),
                  "frontend storage requires attach_frontend() first");
    out.push_back(host.frontend_nic);
  }
  return out;
}

void StorageTraffic::checkpoint_write(const std::vector<int>& hosts,
                                      const std::vector<topo::StorageHost>& storage,
                                      DataSize per_host, DoneFn done) {
  HPN_CHECK(!hosts.empty() && !storage.empty());
  const bool backend = storage.front().on_backend;
  auto remaining = std::make_shared<int>(0);
  auto shared_done = std::make_shared<DoneFn>(std::move(done));
  const auto arrive = [remaining, shared_done] {
    if (--*remaining == 0 && *shared_done) (*shared_done)();
  };

  std::size_t rr = 0;
  for (const int h : hosts) {
    const topo::Host& host = cluster_->hosts.at(static_cast<std::size_t>(h));
    const auto endpoints = host_endpoints(host, backend);
    const DataSize per_flow = per_host / static_cast<double>(endpoints.size());
    for (const NodeId src : endpoints) {
      const NodeId dst = storage[rr++ % storage.size()].host;
      const routing::FiveTuple ft{.src_ip = src.value(),
                                  .dst_ip = dst.value(),
                                  .src_port = static_cast<std::uint16_t>(20'000 + rr)};
      const routing::Path path = router_->trace(src, dst, ft);
      if (!path.valid()) {
        ++unroutable_;
        continue;
      }
      ++*remaining;
      // One NIC port carries a flow; the 2x200G pair gives 400G per NIC
      // via the two-port hash, approximated with a 400G source cap here.
      session_->start_flow(path.links, per_flow, Bandwidth::gbps(400),
                           [arrive](FlowId) { arrive(); });
    }
  }
  HPN_CHECK_MSG(*remaining > 0, "no storage flow was routable");
}

}  // namespace hpn::workload
