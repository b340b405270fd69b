// RePaC-style relative path control (Zhang et al., ATC'21; §6.1).
//
// Production RDMA gives the host one honest knob: the UDP source port.
// Because hashing is deterministic and RePaC "reprints the exact hash
// results in each switch", a host can *solve for* a source port that steers
// a flow onto a chosen equal-cost link — no switch modification needed.
// This utility does exactly that over our Router: predict the path of a
// candidate tuple, or search the sport space for one that traverses a
// target link.
#pragma once

#include <optional>
#include <vector>

#include "routing/router.h"

namespace hpn::routing {

class RePaC {
 public:
  explicit RePaC(Router& router) : router_{&router} {}

  /// "Reprint the hash": the exact path this tuple would take.
  [[nodiscard]] Path predict(LinkId first_hop, NodeId dst, const FiveTuple& tuple) {
    return router_->trace_via(first_hop, dst, tuple);
  }

  /// Find a source port (searching from base.src_port) whose path crosses
  /// `target_link`. nullopt if the budget runs out or no path exists.
  std::optional<std::uint16_t> steer_onto(LinkId first_hop, NodeId dst, FiveTuple base,
                                          LinkId target_link, int budget = 4096);

  [[nodiscard]] int probes_used() const { return probes_; }

 private:
  Router* router_;
  int probes_ = 0;
  std::vector<LinkId> probe_;  ///< one probe's path, reused across probes
};

}  // namespace hpn::routing
