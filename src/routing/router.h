// Equal-cost multi-path routing over a Topology.
//
// For each destination we BFS a hop-count field over *up* links; at any node
// the ECMP group toward a destination is the set of up out-links whose far
// end is strictly closer. Path tracing then applies the configured switch
// hash at every hop — so hash polarization, per-port core hashing and
// dual-plane path pinning all emerge from topology + hash policy, never
// from special cases.
//
// Distance fields are cached per *attachment set*, not per destination. An
// endpoint (NIC, GPU, host) never forwards, so its field beyond its own
// access hop is a BFS seeded at the switches whose link into it is up: in
// HPN the NIC's dual-ToR pair (§4), shared by every NIC of that rail and
// segment. The field is built once per distinct set, and a lookup differs
// from it only at the destination itself (0) and at its non-transit
// in-neighbours (1; on HPN the NIC's PCIe GPU). Switch destinations, and a
// destination with an access port down in either direction, get a field of
// their own. Fields are stored densely by slot and dropped wholesale when
// link state changes (BGP reconvergence is modeled by the ctrl layer; the
// router reflects the post-convergence fabric).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "routing/hash.h"
#include "topo/topology.h"

namespace hpn::routing {

struct Path {
  std::vector<LinkId> links;
  [[nodiscard]] bool valid() const { return !links.empty(); }
  [[nodiscard]] std::size_t hops() const { return links.size(); }
};

class Router {
 public:
  Router(const topo::Topology& topology, HashConfig hash_config = {});

  [[nodiscard]] const EcmpHasher& hasher() const { return hasher_; }
  [[nodiscard]] const topo::Topology& topology() const { return *topo_; }

  /// Hop distance from `from` to `dst` over up links; -1 if unreachable.
  [[nodiscard]] int distance(NodeId from, NodeId dst);

  /// The ECMP group at `node` toward `dst`: all up out-links one hop closer.
  [[nodiscard]] std::vector<LinkId> ecmp_links(NodeId node, NodeId dst);

  /// Calls `f(link)` for each link of ecmp_links(node, dst), in the same
  /// order, without building the vector. `f` may query the router again
  /// toward the same `dst` (the field is already resolved), not another.
  template <class F>
  void for_each_next_hop(NodeId node, NodeId dst, F&& f) {
    const std::int32_t* field = field_for(dst);
    const std::int32_t here = dist_at(field, node, dst);
    if (here <= 0) return;  // at destination or unreachable
    for (const LinkId lid : topo_->out_links(node)) {
      if (is_next_hop(field, topo_->link(lid), dst, here)) f(lid);
    }
  }

  /// Trace the exact path flow `ft` takes from `src` to `dst`, applying the
  /// switch hash at every fan-out. Empty path if unreachable.
  [[nodiscard]] Path trace(NodeId src, NodeId dst, const FiveTuple& ft);

  /// trace() into `out` (cleared first), reusing its capacity: the tuple's
  /// CRC is taken once per trace and each hop's group is scanned in place.
  /// Returns whether the path is valid (non-empty).
  bool trace_into(NodeId src, NodeId dst, const FiveTuple& ft, std::vector<LinkId>& out);

  /// The hash-free shortest path: the first ECMP candidate (out-link order)
  /// at every hop. That is the lexicographically lowest shortest path, the
  /// one a BFS from `src` visiting adjacency in out-link order finds. Empty
  /// if unreachable or src == dst. A reachable hop with no candidate is a
  /// router bug and fails an HPN_CHECK naming src and dst.
  [[nodiscard]] Path first_path(NodeId src, NodeId dst);

  /// Trace with the first hop pinned (the host already chose a NIC egress
  /// port — this is how dual-ToR port/plane selection enters routing).
  [[nodiscard]] Path trace_via(LinkId first_hop, NodeId dst, const FiveTuple& ft);

  /// trace_via() into `out` (cleared first), allocation-free once `out` has
  /// grown to a path's length. Returns whether the path is valid.
  bool trace_via_into(LinkId first_hop, NodeId dst, const FiveTuple& ft,
                      std::vector<LinkId>& out);

  /// Drop all cached distance fields and the destination -> field map; call
  /// after any link/topology change.
  void invalidate();

  /// Monotone counter bumped by invalidate() (lets callers cache on top).
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// Distinct destinations resolved since the last invalidate().
  [[nodiscard]] std::size_t cached_destinations() const { return cached_destinations_; }

  /// Work the router did since construction (invalidate() keeps it).
  struct Stats {
    std::uint64_t fields_built = 0;           ///< BFS runs: one per set or own field
    std::uint64_t destinations_resolved = 0;  ///< destinations mapped to a field
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// The field `dst`'s lookups read (node_count() entries). Exact except at
  /// dst and its non-transit in-neighbours; see dist_at.
  const std::int32_t* field_for(NodeId dst);
  /// Hop distance from `node` to `dst`, with the override applied.
  [[nodiscard]] std::int32_t dist_at(const std::int32_t* field, NodeId node, NodeId dst) const;
  /// Whether up link `l` is a hop one closer to dst than its source (at
  /// distance `here`).
  [[nodiscard]] bool is_next_hop(const std::int32_t* field, const topo::Link& l, NodeId dst,
                                 std::int32_t here) const;
  /// Appends the hashed hops from `src` to `dst` to `out`; false if some
  /// hop has no candidate (out is then partly written).
  bool append_trace(NodeId src, NodeId dst, const FiveTuple& ft, std::vector<LinkId>& out);
  /// The slot of dst's field, building it on first use.
  std::uint32_t slot_for(NodeId dst);
  /// Multi-source BFS over up links into a new slot: `seeds` at
  /// `seed_distance`, only transit nodes expand.
  std::uint32_t build_field(std::span<const NodeId> seeds, std::int32_t seed_distance);
  /// Size the per-node tables to the topology and forget every field.
  void reset();

  const topo::Topology* topo_;
  EcmpHasher hasher_;
  std::vector<char> transit_;             ///< per node: may forward through-traffic
  std::vector<std::uint32_t> slot_of_;    ///< per destination: field slot or kNoSlot
  std::map<std::vector<NodeId>, std::uint32_t> set_slots_;  ///< attachment set -> slot
  std::vector<std::int32_t> fields_;      ///< slot-major, node_count() per slot
  std::vector<NodeId> frontier_;          ///< BFS scratch
  std::vector<LinkId> candidates_;        ///< one hop's ECMP group while tracing
  std::size_t cached_destinations_ = 0;
  Stats stats_;
  std::uint64_t epoch_ = 0;
};

}  // namespace hpn::routing
