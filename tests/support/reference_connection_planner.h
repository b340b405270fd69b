// Test-only oracle: ccl::ConnectionManager's connection planner (Algorithm 1)
// and path refresh as they were before a slot stopped at its minimax bound.
// Kept as it was (header-only, renamed into namespace hpn::reference, over
// the per-destination reference::Router, with no router epoch: the caller
// calls refresh() where path_of() would re-trace): every source port of a slot's
// budget is hash-traced until one scores 0, fabric-link occupancy is an
// unordered_map and the pair's own links a std::set. The production manager
// must hand out the same connections (id, tuple, path, ports) and leave the
// same occupancy after every call. Deliberately unoptimized; do not use
// outside tests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "ccl/connection.h"
#include "common/check.h"
#include "tests/support/reference_router.h"
#include "topo/cluster.h"

namespace hpn::reference {

class ConnectionPlanner {
 public:
  ConnectionPlanner(const topo::Cluster& cluster, Router& router,
                    ccl::ConnectionConfig config = {})
      : cluster_{&cluster}, router_{&router}, config_{config} {
    HPN_CHECK(config_.conns_per_pair >= 1);
  }

  /// Algorithm 1. Establishes (or returns cached) connections src -> dst.
  const std::vector<ConnId>& establish(int src_rank, int dst_rank) {
    HPN_CHECK_MSG(src_rank != dst_rank, "self-connection requested");
    const std::uint64_t key = pair_key(src_rank, dst_rank);
    auto it = by_pair_.find(key);
    if (it != by_pair_.end()) return it->second;

    const auto& att = cluster_->nic_of(src_rank);
    const NodeId dst_nic = cluster_->nic_of(dst_rank).nic;
    std::vector<ConnId> ids;
    std::set<LinkId> pair_fabric;  // links already used by this pair's conns

    const int per_slot_budget =
        std::max(1, config_.sport_search_budget / std::max(1, config_.conns_per_pair));
    std::uint16_t sport = config_.sport_base;
    for (int slot = 0; slot < config_.conns_per_pair; ++slot) {
      const int port = slot % att.ports;

      ccl::Connection best;
      best.src_rank = src_rank;
      best.dst_rank = dst_rank;
      best.planned_port = port;
      best.src_port_index = port;
      long best_score = -1;

      for (int tries = 0; tries < per_slot_budget; ++tries) {
        const routing::FiveTuple tuple = tuple_for(src_rank, dst_rank, sport++);
        ++traces_;
        const routing::Path p = router_->trace_via(
            att.access.at(static_cast<std::size_t>(port)), dst_nic, tuple);
        if (!p.valid()) break;  // port/plane unreachable, try next slot
        long score = 0;
        if (config_.disjoint_paths) {
          for (const LinkId l : fabric_links(p)) {
            long use = pair_fabric.count(l) ? 1'000 : 0;  // within-pair overlap is worst
            const auto uit = fabric_usage_.find(l);
            if (uit != fabric_usage_.end()) use += uit->second;
            score = std::max(score, use);
          }
        }
        if (best_score < 0 || score < best_score) {
          best_score = score;
          best.tuple = tuple;
          best.path = p;
        }
        if (!config_.disjoint_paths || best_score == 0) break;  // good enough
      }
      if (best_score < 0) continue;  // nothing routable on this port

      for (const LinkId l : fabric_links(best.path)) {
        pair_fabric.insert(l);
        fabric_usage_[l] += 1;
      }
      best.id = ConnId{static_cast<ConnId::underlying>(conns_.size())};
      ids.push_back(best.id);
      conns_.push_back(std::move(best));
    }
    if (ids.empty() && config_.allow_unreachable_establish) {
      ccl::Connection dark;
      dark.src_rank = src_rank;
      dark.dst_rank = dst_rank;
      dark.tuple = tuple_for(src_rank, dst_rank, config_.sport_base);
      dark.id = ConnId{static_cast<ConnId::underlying>(conns_.size())};
      ids.push_back(dark.id);
      conns_.push_back(std::move(dark));
    }
    HPN_CHECK_MSG(!ids.empty(), "no path between rank " << src_rank << " and " << dst_rank);
    return by_pair_.emplace(key, std::move(ids)).first->second;
  }

  /// The connection's path after the fabric changed: the planner's port if
  /// it still routes, else the first live port. (The reference router has
  /// no epoch; the caller says when to refresh.)
  const routing::Path& refresh(ConnId id) {
    ccl::Connection& c = conns_.at(id.index());
    c.src_port_index = c.planned_port;
    routing::Path p = trace_conn(c);
    if (!p.valid()) {
      const auto& att = cluster_->nic_of(c.src_rank);
      for (int port = 0; port < att.ports && !p.valid(); ++port) {
        if (port == c.planned_port) continue;
        ccl::Connection alt = c;
        alt.src_port_index = port;
        p = trace_conn(alt);
        if (p.valid()) c.src_port_index = port;
      }
    }
    c.path = std::move(p);
    return c.path;
  }

  [[nodiscard]] const ccl::Connection& connection(ConnId id) const {
    return conns_.at(id.index());
  }
  [[nodiscard]] std::size_t connection_count() const { return conns_.size(); }

  /// Occupancy of fabric link `l` (0 if never used).
  [[nodiscard]] int fabric_usage(LinkId l) const {
    const auto it = fabric_usage_.find(l);
    return it == fabric_usage_.end() ? 0 : it->second;
  }
  [[nodiscard]] const std::unordered_map<LinkId, int>& usage() const { return fabric_usage_; }

  /// Source ports hash-traced by establish() so far.
  [[nodiscard]] std::uint64_t traces() const { return traces_; }

 private:
  static std::uint64_t pair_key(int src, int dst) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
           static_cast<std::uint32_t>(dst);
  }

  routing::FiveTuple tuple_for(int src_rank, int dst_rank, std::uint16_t sport) const {
    return routing::FiveTuple{.src_ip = cluster_->nic_of(src_rank).nic.value(),
                              .dst_ip = cluster_->nic_of(dst_rank).nic.value(),
                              .src_port = sport};
  }

  std::vector<LinkId> fabric_links(const routing::Path& path) const {
    std::vector<LinkId> out;
    for (const LinkId l : path.links) {
      if (cluster_->topo.link(l).kind == topo::LinkKind::kFabric) out.push_back(l);
    }
    return out;
  }

  routing::Path trace_conn(const ccl::Connection& conn) {
    const auto& att = cluster_->nic_of(conn.src_rank);
    const NodeId dst_nic = cluster_->nic_of(conn.dst_rank).nic;
    return router_->trace_via(att.access.at(static_cast<std::size_t>(conn.src_port_index)),
                              dst_nic, conn.tuple);
  }

  const topo::Cluster* cluster_;
  Router* router_;
  ccl::ConnectionConfig config_;
  std::vector<ccl::Connection> conns_;
  std::unordered_map<std::uint64_t, std::vector<ConnId>> by_pair_;
  std::unordered_map<LinkId, int> fabric_usage_;
  std::uint64_t traces_ = 0;
};

}  // namespace hpn::reference
