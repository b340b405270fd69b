#include "routing/repac.h"

#include <algorithm>

namespace hpn::routing {

std::optional<std::uint16_t> RePaC::steer_onto(LinkId first_hop, NodeId dst, FiveTuple base,
                                               LinkId target_link, int budget) {
  for (int i = 0; i < budget; ++i) {
    ++probes_;
    if (!router_->trace_via_into(first_hop, dst, base, probe_)) {
      return std::nullopt;  // unreachable: no sport will help
    }
    if (std::find(probe_.begin(), probe_.end(), target_link) != probe_.end()) {
      return base.src_port;
    }
    ++base.src_port;
  }
  return std::nullopt;
}

}  // namespace hpn::routing
