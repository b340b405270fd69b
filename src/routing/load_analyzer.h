// Static load analysis: trace a set of flows and report how evenly their
// paths spread over equal-cost links. Quantifies hash polarization without
// running the full fluid simulator (the Fig 12/13 mechanism, and Table 1's
// "search space" claims are checked against this).
#pragma once

#include <unordered_map>
#include <vector>

#include "routing/router.h"

namespace hpn::routing {

struct FlowSpec {
  NodeId src;
  NodeId dst;
  FiveTuple tuple;
  double weight = 1.0;  ///< Relative offered load (elephant vs mouse).
  /// When set, the first hop (the NIC's egress port) is pinned instead of
  /// hashed — how ccl-planned connections enter the fabric.
  LinkId first_hop = LinkId::invalid();
};

struct LinkLoad {
  LinkId link;
  double load = 0.0;     ///< Sum of weights of flows crossing the link.
  int flow_count = 0;
};

class LoadAnalyzer {
 public:
  explicit LoadAnalyzer(Router& router) : router_{&router} {}

  /// Trace all flows and accumulate per-link load. Unroutable flows are
  /// counted and skipped.
  void run(const std::vector<FlowSpec>& flows);

  [[nodiscard]] const std::unordered_map<LinkId, LinkLoad>& loads() const { return loads_; }
  [[nodiscard]] int unroutable() const { return unroutable_; }

  /// Loads restricted to links of one kind whose source node is one kind
  /// (e.g. fabric links leaving ToRs = the uplinks ECMP spreads over), in
  /// ascending LinkId order.
  [[nodiscard]] std::vector<LinkLoad> loads_on(topo::LinkKind link_kind,
                                               topo::NodeKind src_kind) const;

  /// Heaviest single link (in flow-weight units) — the collision metric:
  /// 1.0 means no elephant ever shares a link with another.
  static double max_load(const std::vector<LinkLoad>& loads);

  /// Normalized entropy of the load distribution in [0,1]; 1 = all
  /// candidate links equally used, ->0 = load collapses onto few links.
  static double effective_entropy(const std::vector<LinkLoad>& loads,
                                  std::size_t candidate_links);

 private:
  Router* router_;
  std::unordered_map<LinkId, LinkLoad> loads_;
  int unroutable_ = 0;
};

}  // namespace hpn::routing
