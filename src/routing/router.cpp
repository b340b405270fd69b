#include "routing/router.h"

#include <algorithm>

#include "common/check.h"

namespace hpn::routing {

namespace {

/// Only switches forward through-traffic; GPUs/NICs/NVSwitches/hosts can
/// originate and terminate but never transit (host relay for rail-only
/// designs is an *explicit* ccl-layer action, not a routing artifact).
bool can_transit(topo::NodeKind kind) {
  switch (kind) {
    case topo::NodeKind::kTor:
    case topo::NodeKind::kAgg:
    case topo::NodeKind::kCore:
      return true;
    default:
      return false;
  }
}

}  // namespace

Router::Router(const topo::Topology& topology, HashConfig hash_config)
    : topo_{&topology}, hasher_{hash_config} {}

void Router::reset() {
  const std::size_t n = topo_->node_count();
  if (transit_.size() != n) {
    transit_.resize(n);
    for (const topo::Node& node : topo_->nodes()) {
      transit_[node.id.index()] = can_transit(node.kind) ? 1 : 0;
    }
  }
  slot_of_.assign(n, kNoSlot);
  set_slots_.clear();
  fields_.clear();
  cached_destinations_ = 0;
}

const std::int32_t* Router::field_for(NodeId dst) {
  if (slot_of_.size() != topo_->node_count()) reset();
  std::uint32_t& slot = slot_of_[dst.index()];
  if (slot == kNoSlot) {
    slot = slot_for(dst);
    ++cached_destinations_;
    ++stats_.destinations_resolved;
  }
  return fields_.data() + std::size_t{slot} * slot_of_.size();
}

std::uint32_t Router::slot_for(NodeId dst) {
  if (transit_[dst.index()]) return build_field({&dst, 1}, 0);
  // The attachment set: transit neighbours t whose link t -> dst is up. Only
  // that direction enters the field, but a port down either way gives dst
  // a field of its own, so only fully healthy attachments share.
  std::vector<NodeId> set;
  bool own = false;
  for (const LinkId lid : topo_->out_links(dst)) {
    const topo::Link& l = topo_->link(lid);
    if (!transit_[l.dst.index()]) continue;
    const bool in_up = topo_->link(l.reverse).up;
    own |= !(in_up && l.up);
    if (in_up) set.push_back(l.dst);
  }
  std::sort(set.begin(), set.end());
  set.erase(std::unique(set.begin(), set.end()), set.end());
  if (own) return build_field(set, 1);
  const auto [it, inserted] = set_slots_.try_emplace(std::move(set), kNoSlot);
  if (inserted) it->second = build_field(it->first, 1);
  return it->second;
}

std::uint32_t Router::build_field(std::span<const NodeId> seeds, std::int32_t seed_distance) {
  const std::size_t n = slot_of_.size();
  const auto slot = static_cast<std::uint32_t>(fields_.size() / n);
  fields_.resize(fields_.size() + n, -1);
  std::int32_t* dist = fields_.data() + std::size_t{slot} * n;
  const std::vector<topo::Link>& links = topo_->links();
  frontier_.clear();
  for (const NodeId s : seeds) {
    dist[s.index()] = seed_distance;
    frontier_.push_back(s);
  }
  for (std::size_t head = 0; head < frontier_.size(); ++head) {
    const NodeId u = frontier_[head];
    if (!transit_[u.index()]) continue;
    const std::int32_t du = dist[u.index()];
    // Traverse in-links of u: for each out-link u->v, the reverse v->u is
    // the edge a packet at v would actually use, so it must be up.
    for (const LinkId lid : topo_->out_links(u)) {
      const topo::Link& l = links[lid.index()];
      if (!links[l.reverse.index()].up) continue;
      if (dist[l.dst.index()] != -1) continue;
      dist[l.dst.index()] = du + 1;
      frontier_.push_back(l.dst);
    }
  }
  ++stats_.fields_built;
  return slot;
}

std::int32_t Router::dist_at(const std::int32_t* field, NodeId node, NodeId dst) const {
  if (node == dst) return 0;
  if (!transit_[node.index()]) {
    // A non-transit in-neighbour of dst is one hop away; the set field,
    // seeded past dst, does not know that.
    for (const LinkId lid : topo_->out_links(node)) {
      const topo::Link& l = topo_->link(lid);
      if (l.dst == dst && l.up) return 1;
    }
  }
  return field[node.index()];
}

int Router::distance(NodeId from, NodeId dst) {
  return dist_at(field_for(dst), from, dst);
}

bool Router::is_next_hop(const std::int32_t* field, const topo::Link& l, NodeId dst,
                         std::int32_t here) const {
  if (!l.up) return false;
  // A non-transit hop is taken only when it is dst itself, so the field is
  // read (override-free) at transit nodes alone. This also keeps a
  // dual-homed NIC that looks one hop closer out of the group.
  if (l.dst == dst) return here == 1;
  return transit_[l.dst.index()] && field[l.dst.index()] == here - 1;
}

std::vector<LinkId> Router::ecmp_links(NodeId node, NodeId dst) {
  std::vector<LinkId> out;
  for_each_next_hop(node, dst, [&out](LinkId lid) { out.push_back(lid); });
  return out;
}

Path Router::first_path(NodeId src, NodeId dst) {
  const std::int32_t* field = field_for(dst);
  Path path;
  for (NodeId at = src;;) {
    const std::int32_t here = dist_at(field, at, dst);
    if (here <= 0) break;
    const auto out = topo_->out_links(at);
    const auto next = std::find_if(out.begin(), out.end(), [&](LinkId lid) {
      return is_next_hop(field, topo_->link(lid), dst, here);
    });
    HPN_CHECK_MSG(next != out.end(), "empty ECMP group at node " << at << " on the path from "
                                                                 << src << " to " << dst);
    path.links.push_back(*next);
    at = topo_->link(*next).dst;
  }
  return path;
}

bool Router::append_trace(NodeId src, NodeId dst, const FiveTuple& ft,
                          std::vector<LinkId>& out) {
  if (src == dst) return true;
  const std::int32_t* field = field_for(dst);
  const std::uint32_t crc = tuple_crc(ft);
  const std::vector<topo::Link>& links = topo_->links();
  std::uint16_t ingress_port = 0;
  const std::size_t hop_limit = 32;
  std::size_t hops = 0;
  for (NodeId at = src; at != dst;) {
    const std::int32_t here = dist_at(field, at, dst);
    if (here <= 0) return false;  // unreachable
    candidates_.clear();
    for (const LinkId lid : topo_->out_links(at)) {
      if (is_next_hop(field, links[lid.index()], dst, here)) candidates_.push_back(lid);
    }
    if (candidates_.empty()) return false;
    const std::size_t pick =
        topo_->node(at).kind == topo::NodeKind::kCore
            ? hasher_.select_at_core(ft, crc, at, ingress_port, candidates_.size())
            : hasher_.select_crc(crc, at, candidates_.size());
    const LinkId chosen = candidates_[pick];
    out.push_back(chosen);
    const topo::Link& l = links[chosen.index()];
    ingress_port = l.dst_port;
    at = l.dst;
    HPN_CHECK_MSG(++hops <= hop_limit, "routing loop tracing to dst");
  }
  return true;
}

bool Router::trace_into(NodeId src, NodeId dst, const FiveTuple& ft, std::vector<LinkId>& out) {
  out.clear();
  if (!append_trace(src, dst, ft, out)) out.clear();
  return !out.empty();
}

Path Router::trace(NodeId src, NodeId dst, const FiveTuple& ft) {
  Path path;
  trace_into(src, dst, ft, path.links);
  return path;
}

bool Router::trace_via_into(LinkId first_hop, NodeId dst, const FiveTuple& ft,
                            std::vector<LinkId>& out) {
  out.clear();
  const topo::Link& first = topo_->link(first_hop);
  if (!first.up) return false;
  out.push_back(first_hop);
  // The remainder must make progress from the pinned hop's far end.
  if (first.dst != dst && !append_trace(first.dst, dst, ft, out)) out.clear();
  return !out.empty();
}

Path Router::trace_via(LinkId first_hop, NodeId dst, const FiveTuple& ft) {
  Path path;
  trace_via_into(first_hop, dst, ft, path.links);
  return path;
}

void Router::invalidate() {
  reset();
  ++epoch_;
}

}  // namespace hpn::routing
