// RDMA connection management with exact path control (§6.1, Appendix B).
//
// Algorithm 1 (EstablishConns): for each peer pair, search UDP source ports
// whose hash-traced paths are pairwise link-disjoint and open one RDMA
// connection per disjoint path. The paper uses RePaC to "reprint the exact
// hash results in each switch"; we own the switch hash functions, so the
// planner predicts paths exactly the same way. Thanks to dual-plane, the
// search only enumerates the ToR's uplinks — O(60) (Table 1). A slot's
// search stops once its best candidate scores the lowest any shortest path
// from its port could (a minimax over the ECMP DAG): no later source port
// can do better, so the choice is the one the whole budget would make, and
// the next slot's source ports start where the whole budget would end.
//
// Algorithm 2 (PathSelection): every connection carries a counter of bytes
// in its outstanding Work Queue Elements; each message goes to the
// least-loaded connection — a congested path drains its WQEs slower and
// naturally sheds load.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "routing/router.h"
#include "topo/cluster.h"

namespace hpn::ccl {

struct Connection {
  ConnId id = ConnId::invalid();
  int src_rank = -1;
  int dst_rank = -1;
  int planned_port = 0;    ///< The planner's port (plane) choice.
  int src_port_index = 0;  ///< Port currently carrying it (failover moves it).
  routing::FiveTuple tuple;
  routing::Path path;               ///< Cached; re-traced on router epoch change.
  std::uint64_t path_epoch = 0;
  std::int64_t outstanding_wqe_bits = 0;  ///< Algorithm 2's counter.
};

struct ConnectionConfig {
  /// Connections per (src, dst) pair. HPN default: one per plane.
  int conns_per_pair = 2;
  /// Require pairwise fabric-link-disjoint paths (Algorithm 1). When off,
  /// source ports are chosen blindly (the traditional-DCN baseline).
  bool disjoint_paths = true;
  /// Pick the least-loaded connection per message (Algorithm 2). When off,
  /// messages hash round-robin-blind onto connections.
  bool wqe_load_balance = true;
  /// Source-port search budget per pair.
  int sport_search_budget = 256;
  std::uint16_t sport_base = 49152;
  /// Tolerate establish() while the destination is fully isolated (every
  /// source port dark, e.g. both ports of a rail NIC failed): instead of
  /// failing loudly, park one invalid-path connection that path_of()'s
  /// epoch refresh revives once the fabric heals — senders ride their
  /// unreachable-retry loop meanwhile. Off by default so permanently
  /// unroutable pairs (rail-only cross-rail) still fail fast instead of
  /// retrying forever.
  bool allow_unreachable_establish = false;
};

class ConnectionManager {
 public:
  ConnectionManager(const topo::Cluster& cluster, routing::Router& router,
                    ConnectionConfig config = {});

  /// Algorithm 1. Establishes (or returns cached) connections src -> dst.
  /// Returns at least one connection as long as the pair is reachable.
  const std::vector<ConnId>& establish(int src_rank, int dst_rank);

  /// Does any network path currently exist between the pair's NICs (on any
  /// source port)? Cheap probe used before establish() for fabrics where a
  /// pair may be permanently unreachable (rail-only tier2, §10).
  [[nodiscard]] bool routable(int src_rank, int dst_rank);

  /// Algorithm 2. Chooses the connection for the next message.
  ConnId pick(const std::vector<ConnId>& conns);

  /// WQE accounting around each message.
  void post_wqe(ConnId conn, DataSize bytes);
  void complete_wqe(ConnId conn, DataSize bytes);

  [[nodiscard]] const Connection& connection(ConnId id) const;

  /// Current path of the connection, re-traced if the fabric changed.
  const routing::Path& path_of(ConnId id);

  /// Connections planned across fabric link `l` so far (the occupancy
  /// Algorithm 1 scores candidates by).
  [[nodiscard]] int fabric_usage(LinkId l) const {
    return l.index() < fabric_usage_.size() ? fabric_usage_[l.index()] : 0;
  }

  [[nodiscard]] const ConnectionConfig& config() const { return config_; }

  /// Work Algorithm 1 did since construction.
  struct Stats {
    std::uint64_t pairs_planned = 0;     ///< establish() calls that planned a pair
    std::uint64_t slots = 0;             ///< connection slots searched
    std::uint64_t traces = 0;            ///< source ports traced by the search
    std::uint64_t stopped_at_bound = 0;  ///< slots ended early at the minimax bound
    std::uint64_t traces_skipped = 0;    ///< budget those early stops left untraced
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  routing::FiveTuple tuple_for(int src_rank, int dst_rank, std::uint16_t sport) const;
  [[nodiscard]] bool is_fabric(LinkId l) const;
  /// A candidate path's cost through link `l`: cluster-wide occupancy, plus
  /// 1,000 if this pair already uses it. A path scores its worst link.
  [[nodiscard]] int link_score(LinkId l) const;
  /// The lowest score any shortest path starting with `first_hop` can
  /// reach: no source port can trace a path that scores lower.
  int score_bound(LinkId first_hop, NodeId dst);
  /// score_bound's minimax below `at`, memoised per node for one call.
  int best_score_from(NodeId at, NodeId dst);

  const topo::Cluster* cluster_;
  routing::Router* router_;
  ConnectionConfig config_;
  std::vector<Connection> conns_;
  std::unordered_map<std::uint64_t, std::vector<ConnId>> by_pair_;
  /// Cluster-wide fabric-link occupancy by LinkId, shared by all planners
  /// using this manager (the §6.1 host-switch collaborating system's link
  /// state).
  std::vector<int> fabric_usage_;
  std::vector<LinkId> pair_links_;     ///< fabric links of the pair being planned
  std::vector<LinkId> trace_;          ///< the candidate being scored
  std::vector<int> best_from_;         ///< by NodeId: best_score_from, -1 = not yet
  std::vector<NodeId> best_from_set_;  ///< nodes score_bound memoised, reset after
  Stats stats_;
  std::uint32_t rr_counter_ = 0;
};

}  // namespace hpn::ccl
