#include "ccl/connection.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace hpn::ccl {
namespace {

std::uint64_t pair_key(int src, int dst) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
         static_cast<std::uint32_t>(dst);
}

}  // namespace

ConnectionManager::ConnectionManager(const topo::Cluster& cluster, routing::Router& router,
                                     ConnectionConfig config)
    : cluster_{&cluster}, router_{&router}, config_{config} {
  HPN_CHECK(config_.conns_per_pair >= 1);
}

routing::FiveTuple ConnectionManager::tuple_for(int src_rank, int dst_rank,
                                                std::uint16_t sport) const {
  return routing::FiveTuple{.src_ip = cluster_->nic_of(src_rank).nic.value(),
                            .dst_ip = cluster_->nic_of(dst_rank).nic.value(),
                            .src_port = sport};
}

bool ConnectionManager::is_fabric(LinkId l) const {
  return cluster_->topo.link(l).kind == topo::LinkKind::kFabric;
}

int ConnectionManager::link_score(LinkId l) const {
  if (!is_fabric(l)) return 0;
  const bool mine = std::find(pair_links_.begin(), pair_links_.end(), l) != pair_links_.end();
  return (mine ? 1'000 : 0) + fabric_usage(l);  // within-pair overlap is worst
}

int ConnectionManager::score_bound(LinkId first_hop, NodeId dst) {
  if (best_from_.size() < cluster_->topo.node_count()) {
    best_from_.resize(cluster_->topo.node_count(), -1);
  }
  const int bound =
      std::max(link_score(first_hop), best_score_from(cluster_->topo.link(first_hop).dst, dst));
  for (const NodeId n : best_from_set_) best_from_[n.index()] = -1;
  best_from_set_.clear();
  return bound;
}

int ConnectionManager::best_score_from(NodeId at, NodeId dst) {
  if (at == dst) return 0;
  if (best_from_[at.index()] >= 0) return best_from_[at.index()];
  int best = std::numeric_limits<int>::max();  // no shortest path on from here
  router_->for_each_next_hop(at, dst, [&](LinkId l) {
    const int through = link_score(l);
    if (through >= best) return;  // max(through, rest) cannot beat best
    best = std::min(best, std::max(through, best_score_from(cluster_->topo.link(l).dst, dst)));
  });
  best_from_[at.index()] = best;
  best_from_set_.push_back(at);
  return best;
}

bool ConnectionManager::routable(int src_rank, int dst_rank) {
  const auto& att = cluster_->nic_of(src_rank);
  const NodeId dst_nic = cluster_->nic_of(dst_rank).nic;
  const routing::FiveTuple probe = tuple_for(src_rank, dst_rank, config_.sport_base);
  for (int p = 0; p < att.ports; ++p) {
    if (router_->trace_via_into(att.access.at(static_cast<std::size_t>(p)), dst_nic, probe,
                                trace_)) {
      return true;
    }
  }
  return false;
}

const std::vector<ConnId>& ConnectionManager::establish(int src_rank, int dst_rank) {
  HPN_CHECK_MSG(src_rank != dst_rank, "self-connection requested");
  const std::uint64_t key = pair_key(src_rank, dst_rank);
  auto it = by_pair_.find(key);
  if (it != by_pair_.end()) return it->second;

  ++stats_.pairs_planned;
  const auto& att = cluster_->nic_of(src_rank);
  const NodeId dst_nic = cluster_->nic_of(dst_rank).nic;
  std::vector<ConnId> ids;
  pair_links_.clear();

  // Spread connections across the NIC's ports (planes) first, then across
  // disjoint fabric paths within each plane. Disjoint mode scores each
  // candidate by fabric-link occupancy — both this pair's own links and the
  // cluster-wide usage counters (the host-switch collaborating system of
  // §6.1 keeps all hosts' planners coordinated) — and takes the emptiest.
  const int per_slot_budget =
      std::max(1, config_.sport_search_budget / std::max(1, config_.conns_per_pair));
  std::uint16_t sport = config_.sport_base;
  for (int slot = 0; slot < config_.conns_per_pair; ++slot) {
    ++stats_.slots;
    const int port = slot % att.ports;
    const LinkId first_hop = att.access.at(static_cast<std::size_t>(port));
    const std::uint16_t slot_sport = sport;

    Connection best;
    best.src_rank = src_rank;
    best.dst_rank = dst_rank;
    best.planned_port = port;
    best.src_port_index = port;
    int best_score = -1;
    int bound = -1;  // score_bound(), taken once a try scores above 0

    for (int tries = 0; tries < per_slot_budget; ++tries) {
      const routing::FiveTuple tuple = tuple_for(src_rank, dst_rank, sport++);
      ++stats_.traces;
      if (!router_->trace_via_into(first_hop, dst_nic, tuple, trace_)) {
        // Validity depends on (first hop, dst, router state), never on the
        // tuple; the early stop below relies on it.
        HPN_CHECK_MSG(best_score < 0, "source port " << tuple.src_port
                                                     << " has no path where an earlier one had");
        break;  // port/plane unreachable, try next slot
      }
      int score = 0;
      if (config_.disjoint_paths) {
        for (const LinkId l : trace_) score = std::max(score, link_score(l));
      }
      if (best_score < 0 || score < best_score) {
        best_score = score;
        best.tuple = tuple;
        best.path.links = trace_;
        best.path_epoch = router_->epoch();
      }
      if (!config_.disjoint_paths || best_score == 0) break;  // good enough
      if (tries + 1 == per_slot_budget) break;
      if (bound < 0) bound = score_bound(first_hop, dst_nic);
      if (best_score == bound) {
        // No later source port can score lower. Skip the rest of the budget,
        // so the next slot's ports are the ones the whole search would use.
        ++stats_.stopped_at_bound;
        stats_.traces_skipped += static_cast<std::uint64_t>(per_slot_budget - tries - 1);
        sport = static_cast<std::uint16_t>(slot_sport + static_cast<unsigned>(per_slot_budget));
        break;
      }
    }
    if (best_score < 0) continue;  // nothing routable on this port

    for (const LinkId l : best.path.links) {
      if (!is_fabric(l)) continue;
      if (std::find(pair_links_.begin(), pair_links_.end(), l) == pair_links_.end()) {
        pair_links_.push_back(l);
      }
      if (fabric_usage_.size() <= l.index()) fabric_usage_.resize(cluster_->topo.link_count(), 0);
      fabric_usage_[l.index()] += 1;
    }
    best.id = ConnId{static_cast<ConnId::underlying>(conns_.size())};
    ids.push_back(best.id);
    conns_.push_back(std::move(best));
  }
  if (ids.empty() && config_.allow_unreachable_establish) {
    // Destination fully isolated right now (e.g. a fault took both ports of
    // the rail NIC). Park one dark connection: its path is invalid and its
    // epoch is current, so senders spin on their unreachable-retry loop and
    // the first epoch bump after repair makes path_of() re-trace it live.
    Connection dark;
    dark.src_rank = src_rank;
    dark.dst_rank = dst_rank;
    dark.tuple = tuple_for(src_rank, dst_rank, config_.sport_base);
    dark.path_epoch = router_->epoch();
    dark.id = ConnId{static_cast<ConnId::underlying>(conns_.size())};
    ids.push_back(dark.id);
    conns_.push_back(std::move(dark));
  }
  HPN_CHECK_MSG(!ids.empty(), "no path between rank " << src_rank << " and " << dst_rank);
  return by_pair_.emplace(key, std::move(ids)).first->second;
}

ConnId ConnectionManager::pick(const std::vector<ConnId>& conns) {
  HPN_CHECK(!conns.empty());
  if (!config_.wqe_load_balance) {
    return conns[rr_counter_++ % conns.size()];
  }
  // Algorithm 2: least outstanding WQE bytes.
  ConnId best = conns.front();
  std::int64_t best_load = conns_.at(best.index()).outstanding_wqe_bits;
  for (std::size_t i = 1; i < conns.size(); ++i) {
    const std::int64_t load = conns_.at(conns[i].index()).outstanding_wqe_bits;
    if (load < best_load) {
      best = conns[i];
      best_load = load;
    }
  }
  return best;
}

void ConnectionManager::post_wqe(ConnId conn, DataSize bytes) {
  conns_.at(conn.index()).outstanding_wqe_bits += bytes.as_bits();
}

void ConnectionManager::complete_wqe(ConnId conn, DataSize bytes) {
  std::int64_t& counter = conns_.at(conn.index()).outstanding_wqe_bits;
  counter -= bytes.as_bits();
  HPN_CHECK_MSG(counter >= 0, "WQE counter went negative");
}

const Connection& ConnectionManager::connection(ConnId id) const {
  return conns_.at(id.index());
}

const routing::Path& ConnectionManager::path_of(ConnId id) {
  Connection& c = conns_.at(id.index());
  if (c.path_epoch != router_->epoch()) {
    // Fabric changed (failure/repair): the host recalculates disjoint paths
    // from the ToR's new ECMP group (§6.1). Prefer the planner's port (so
    // repaired links get their traffic back); if it is dead, fail over to
    // any live port — QP contexts are shared across ports (§4), so the
    // flow moves without re-establishing.
    const auto& att = cluster_->nic_of(c.src_rank);
    const NodeId dst_nic = cluster_->nic_of(c.dst_rank).nic;
    const auto trace_on = [&](int port) {
      return router_->trace_via_into(att.access.at(static_cast<std::size_t>(port)), dst_nic,
                                     c.tuple, c.path.links);
    };
    c.src_port_index = c.planned_port;
    if (!trace_on(c.planned_port)) {
      for (int port = 0; port < att.ports; ++port) {
        if (port != c.planned_port && trace_on(port)) {
          c.src_port_index = port;
          break;
        }
      }
    }
    c.path_epoch = router_->epoch();
  }
  return c.path;
}

}  // namespace hpn::ccl
