#include "ctrl/bgp.h"

#include <algorithm>

#include "common/check.h"

namespace hpn::ctrl {
namespace {

bool speaker_kind(topo::NodeKind kind) {
  return kind == topo::NodeKind::kTor || kind == topo::NodeKind::kAgg ||
         kind == topo::NodeKind::kCore;
}

}  // namespace

BgpFabric::BgpFabric(const topo::Cluster& cluster, sim::Simulator& simulator,
                     BgpTimings timings)
    : cluster_{&cluster}, sim_{&simulator}, timings_{timings} {
  for (const topo::Node& n : cluster.topo.nodes()) {
    if (!speaker_kind(n.kind)) continue;
    Speaker sp;
    sp.node = n.id;
    std::set<NodeId> seen;
    for (const LinkId lid : cluster.topo.out_links(n.id)) {
      const topo::Link& l = cluster.topo.link(lid);
      if (!speaker_kind(cluster.topo.node(l.dst).kind)) continue;
      if (!l.up || !cluster.topo.link(l.reverse).up) continue;
      if (!seen.insert(l.dst).second) continue;  // one adjacency per neighbor
      sp.peers.emplace_back(l.dst, lid);
    }
    speakers_.emplace(n.id, std::move(sp));
  }
}

bool BgpFabric::is_speaker(NodeId n) const { return speakers_.count(n) > 0; }

void BgpFabric::originate_all_host_routes() {
  for (const topo::Host& h : cluster_->hosts) {
    for (const topo::NicAttachment& att : h.nics) {
      for (int p = 0; p < att.ports; ++p) {
        const LinkId access = att.access.at(static_cast<std::size_t>(p));
        if (!cluster_->topo.is_up(access)) continue;
        const NodeId tor = att.tor.at(static_cast<std::size_t>(p));
        Speaker& sp = speaker(tor);
        sp.originated[att.nic] = access;
        reselect_and_propagate(sp, att.nic);
      }
    }
  }
}

std::vector<BgpRoute> BgpFabric::routes_at(NodeId sp_node, Prefix prefix) const {
  const auto it = speakers_.find(sp_node);
  if (it == speakers_.end()) return {};
  const auto fit = it->second.fib.find(prefix);
  return fit == it->second.fib.end() ? std::vector<BgpRoute>{} : fit->second;
}

std::vector<BgpRoute> BgpFabric::best_of(const Speaker& sp, Prefix prefix) const {
  std::vector<BgpRoute> candidates;
  // Self-origination wins outright (directly attached).
  const auto oit = sp.originated.find(prefix);
  if (oit != sp.originated.end()) {
    BgpRoute self;
    self.prefix = prefix;
    self.next_hop = prefix;
    self.via = oit->second;
    candidates.push_back(std::move(self));
    return candidates;
  }
  const auto rit = sp.rib_in.find(prefix);
  if (rit == sp.rib_in.end()) return candidates;
  std::size_t best_len = SIZE_MAX;
  for (const auto& [peer, route] : rit->second) {
    // Path-vector loop suppression.
    if (std::find(route.as_path.begin(), route.as_path.end(), sp.node) !=
        route.as_path.end()) {
      continue;
    }
    best_len = std::min(best_len, route.length());
  }
  for (const auto& [peer, route] : rit->second) {
    if (route.length() != best_len) continue;
    if (std::find(route.as_path.begin(), route.as_path.end(), sp.node) !=
        route.as_path.end()) {
      continue;
    }
    candidates.push_back(route);
  }
  return candidates;
}

void BgpFabric::send(Message msg) {
  // Sabotage knob: the dropped WITHDRAW never counts as in-flight, so
  // quiescent() still reports convergence — with stale routes left behind.
  if (drop_withdrawals_ && msg.kind == MsgKind::kWithdraw) return;
  ++inflight_messages_;
  ++messages_sent_;
  sim_->trace(msg.kind == MsgKind::kWithdraw ? metrics::TraceEventKind::kBgpWithdraw
                                             : metrics::TraceEventKind::kBgpUpdate,
              static_cast<std::uint32_t>(msg.from.value()),
              static_cast<std::uint32_t>(msg.route.prefix.value()));
  sim_->schedule_after(timings_.processing, [this, msg = std::move(msg)] {
    --inflight_messages_;
    deliver(msg);
  });
}

void BgpFabric::deliver(const Message& msg) {
  auto it = speakers_.find(msg.to);
  if (it == speakers_.end()) return;
  Speaker& sp = it->second;
  // Ignore messages from ex-peers (adjacency torn down while in flight).
  const bool still_peer =
      std::any_of(sp.peers.begin(), sp.peers.end(),
                  [&](const auto& pr) { return pr.first == msg.from; });
  if (!still_peer) return;

  const Prefix prefix = msg.route.prefix;
  if (msg.kind == MsgKind::kUpdate) {
    sp.rib_in[prefix][msg.from] = msg.route;
  } else {
    auto rit = sp.rib_in.find(prefix);
    if (rit != sp.rib_in.end()) rit->second.erase(msg.from);
  }
  reselect_and_propagate(sp, prefix);
}

void BgpFabric::reselect_and_propagate(Speaker& sp, Prefix prefix) {
  std::vector<BgpRoute> best = best_of(sp, prefix);
  auto& fib_entry = sp.fib[prefix];
  const bool changed =
      fib_entry.size() != best.size() ||
      (!best.empty() && !fib_entry.empty() && fib_entry.front().length() != best.front().length()) ||
      (best.empty() != fib_entry.empty());
  // Always install (next hops may differ even at equal length/count).
  fib_entry = std::move(best);
  if (fib_entry.empty()) sp.fib.erase(prefix);
  if (changed) {
    ++fib_changes_;
    sim_->trace(metrics::TraceEventKind::kFibUpdate,
                static_cast<std::uint32_t>(sp.node.value()),
                static_cast<std::uint32_t>(prefix.value()));
  }

  // Advertise when our exported view changed: lengths differ or presence
  // flipped. Exported view = shortest length + 1, or "withdrawn".
  const auto cur = sp.fib.find(prefix);
  const std::size_t exported =
      cur == sp.fib.end() ? SIZE_MAX : cur->second.front().length() + 1;
  auto& last = advertised_len_[sp.node];
  const auto lit = last.find(prefix);
  const std::size_t previous = lit == last.end() ? SIZE_MAX : lit->second;
  if (exported == previous && !changed) return;
  last[prefix] = exported;
  announce(sp, prefix);
}

void BgpFabric::announce(Speaker& sp, Prefix prefix) {
  const auto cur = sp.fib.find(prefix);
  for (const auto& [peer, link] : sp.peers) {
    if (cur == sp.fib.end()) {
      Message m;
      m.kind = MsgKind::kWithdraw;
      m.from = sp.node;
      m.to = peer;
      m.route.prefix = prefix;
      send(std::move(m));
      continue;
    }
    // Advertise one best path (split-horizon: not back to the peer we
    // learned it from, unless we have an alternative).
    const BgpRoute* pick = nullptr;
    for (const BgpRoute& r : cur->second) {
      if (r.next_hop != peer) {
        pick = &r;
        break;
      }
    }
    Message m;
    m.from = sp.node;
    m.to = peer;
    if (pick == nullptr) {
      m.kind = MsgKind::kWithdraw;
      m.route.prefix = prefix;
    } else {
      m.kind = MsgKind::kUpdate;
      m.route.prefix = prefix;
      m.route.as_path = pick->as_path;
      m.route.as_path.insert(m.route.as_path.begin(), sp.node);
      m.route.next_hop = sp.node;
      m.route.via = LinkId::invalid();  // receiver resolves its egress link
    }
    send(std::move(m));
  }
}

void BgpFabric::audit_fib(sim::InvariantAuditor& auditor) const {
  if (!auditor.enabled()) return;
  const TimePoint now = sim_->now();

  // speakers_ iterates in hash-bucket order; walk it by ascending NodeId
  // so the violations, and the one a failfast auditor throws, come out in
  // a fixed order.
  std::vector<const Speaker*> ordered;
  ordered.reserve(speakers_.size());
  for (const auto& kv : speakers_) ordered.push_back(&kv.second);
  std::sort(ordered.begin(), ordered.end(),
            [](const Speaker* a, const Speaker* b) { return a->node < b->node; });

  std::set<Prefix> prefixes;
  for (const Speaker* sp : ordered) {
    for (const auto& [prefix, routes] : sp->fib) prefixes.insert(prefix);
  }

  for (const Prefix prefix : prefixes) {
    // Per-prefix next-hop digraph over the speakers (self-originated routes
    // terminate at the attached NIC, so they add no edge).
    std::map<NodeId, std::vector<NodeId>> edges;
    for (const Speaker* speaker : ordered) {
      const Speaker& sp = *speaker;
      const NodeId node = sp.node;
      const auto fit = sp.fib.find(prefix);
      if (fit == sp.fib.end()) continue;
      for (const BgpRoute& r : fit->second) {
        if (r.next_hop == prefix) {
          auditor.check(cluster_->topo.is_up(r.via), sim::AuditRule::kFibDownLink, now,
                        [&, n = node] {
                          std::ostringstream os;
                          os << "speaker " << n.value() << " originates prefix "
                             << prefix.value() << " over down access link "
                             << r.via.value();
                          return os.str();
                        });
          continue;
        }
        const auto pit =
            std::find_if(sp.peers.begin(), sp.peers.end(),
                         [&](const auto& pr) { return pr.first == r.next_hop; });
        if (pit == sp.peers.end()) {
          std::ostringstream os;
          os << "speaker " << node.value() << " routes prefix " << prefix.value()
             << " via " << r.next_hop.value() << ", which is not a peer";
          auditor.fail(sim::AuditRule::kFibBlackhole, now, os.str());
          continue;
        }
        // Any up parallel link to the next hop will do (the adjacency
        // records one link, but traffic can take any member of the bundle).
        bool egress_up = false;
        for (const LinkId cand : cluster_->topo.find_links(node, r.next_hop)) {
          egress_up |= cluster_->topo.is_up(cand) &&
                       cluster_->topo.is_up(cluster_->topo.link(cand).reverse);
        }
        auditor.check(egress_up, sim::AuditRule::kFibDownLink, now, [&, n = node] {
          std::ostringstream os;
          os << "speaker " << n.value() << " routes prefix " << prefix.value()
             << " toward " << r.next_hop.value() << " with every link down";
          return os.str();
        });
        const auto nit = speakers_.find(r.next_hop);
        const bool nh_routes =
            nit != speakers_.end() && nit->second.fib.count(prefix) > 0;
        auditor.check(nh_routes, sim::AuditRule::kFibBlackhole, now, [&, n = node] {
          std::ostringstream os;
          os << "speaker " << n.value() << " routes prefix " << prefix.value()
             << " via " << r.next_hop.value() << ", which has no route (blackhole)";
          return os.str();
        });
        edges[node].push_back(r.next_hop);
      }
    }

    // Loop detection: 3-colour DFS over the next-hop digraph. A grey-node
    // hit is a cycle; one violation per prefix is enough detail.
    enum : std::uint8_t { kWhite, kGrey, kBlack };
    std::map<NodeId, std::uint8_t> colour;
    bool looped = false;
    for (const auto& kv : edges) {
      const NodeId start = kv.first;
      if (looped || colour[start] != kWhite) continue;
      // Iterative DFS; the stack holds (node, next child index).
      std::vector<std::pair<NodeId, std::size_t>> stack{{start, 0}};
      colour[start] = kGrey;
      while (!stack.empty() && !looped) {
        auto& [node, child] = stack.back();
        const auto eit = edges.find(node);
        if (eit == edges.end() || child >= eit->second.size()) {
          colour[node] = kBlack;
          stack.pop_back();
          continue;
        }
        const NodeId next = eit->second[child++];
        const std::uint8_t c = colour[next];
        if (c == kGrey) {
          std::ostringstream os;
          os << "prefix " << prefix.value() << " has a forwarding loop through speaker "
             << next.value();
          auditor.fail(sim::AuditRule::kFibLoop, now, os.str());
          looped = true;
        } else if (c == kWhite) {
          colour[next] = kGrey;
          stack.emplace_back(next, 0);
        }
      }
    }
  }
}

void BgpFabric::on_access_down(LinkId nic_to_tor) {
  const topo::Link& l = cluster_->topo.link(nic_to_tor);
  HPN_CHECK_MSG(is_speaker(l.dst), "access link must point NIC -> ToR");
  // ARP entry removal + /32 withdrawal happen after local detection; model
  // the detection inside `processing` via the message delay of announce.
  Speaker& sp = speaker(l.dst);
  sp.originated.erase(l.src);
  reselect_and_propagate(sp, l.src);
}

void BgpFabric::on_access_up(LinkId nic_to_tor) {
  const topo::Link& l = cluster_->topo.link(nic_to_tor);
  HPN_CHECK_MSG(is_speaker(l.dst), "access link must point NIC -> ToR");
  Speaker& sp = speaker(l.dst);
  sp.originated[l.src] = nic_to_tor;
  reselect_and_propagate(sp, l.src);
}

void BgpFabric::on_fabric_down(LinkId link) {
  const topo::Link& l = cluster_->topo.link(link);
  if (!is_speaker(l.src) || !is_speaker(l.dst)) return;
  // Hold-timer detection, then both sides flush the neighbor.
  sim_->schedule_after(timings_.hold_detect, [this, a = l.src, b = l.dst] {
    for (const auto& [self, peer] : {std::pair{a, b}, std::pair{b, a}}) {
      // Adjacency survives if any parallel link is still up.
      bool alive = false;
      for (const LinkId cand : cluster_->topo.find_links(self, peer)) {
        alive |= cluster_->topo.is_up(cand) &&
                 cluster_->topo.is_up(cluster_->topo.link(cand).reverse);
      }
      if (alive) continue;
      Speaker& sp = speaker(self);
      sp.peers.erase(std::remove_if(sp.peers.begin(), sp.peers.end(),
                                    [&](const auto& pr) { return pr.first == peer; }),
                     sp.peers.end());
      // Flush everything learned from the dead neighbor and reconverge.
      std::vector<Prefix> affected;
      for (auto& [prefix, by_peer] : sp.rib_in) {
        if (by_peer.erase(peer) > 0) affected.push_back(prefix);
      }
      for (const Prefix p : affected) reselect_and_propagate(sp, p);
    }
  });
}

void BgpFabric::on_fabric_up(LinkId link) {
  const topo::Link& l = cluster_->topo.link(link);
  if (!is_speaker(l.src) || !is_speaker(l.dst)) return;
  for (const auto& [self, peer, via] :
       {std::tuple{l.src, l.dst, link}, std::tuple{l.dst, l.src, l.reverse}}) {
    Speaker& sp = speaker(self);
    const bool already =
        std::any_of(sp.peers.begin(), sp.peers.end(),
                    [&, peer = peer](const auto& pr) { return pr.first == peer; });
    if (already) continue;
    sp.peers.emplace_back(peer, via);
    // Session establishment: advertise our full table to the new peer.
    for (const auto& [prefix, routes] : sp.fib) {
      (void)routes;
      advertised_len_[sp.node].erase(prefix);  // force re-announce
      announce(sp, prefix);
      advertised_len_[sp.node][prefix] = sp.fib.at(prefix).front().length() + 1;
    }
  }
}

}  // namespace hpn::ctrl
