// Solver performance harness: paper-Pod incremental re-solve. Cold
// water-filling (the seed reference vs the production engine's first
// resolve()) and incremental re-solve after a single access link flip, over
// >= 100K structural flows on the 15,360-GPU topology. Acceptance (full mode): a rail-access flip
// must re-solve >= 10x faster than a cold seed-solver solve.
//
// Flags: --smoke (a 4-segment, 16-host slice with the same traffic shapes;
// no flow-count floor and no acceptance gate).
//
// Pod traffic mix (distinct caps force many water-filling rounds, which is
// what the per-round full-rescan reference is worst at):
//   * port-0 "rail rings" — within every (segment, rail) group, each host
//     sends to the hosts `stride` positions ahead (strides 1/2/3/5) through
//     the shared plane-0 ToR. Components stay small (one per segment x rail),
//     so a port-0 access flip re-rates only its own group.
//   * port-1 cross-segment flows — same host index and rail, `stride`
//     segments ahead, routed NIC -> ToR(plane1) -> Agg -> ToR(plane1) -> NIC.
//     The shared tier-2 fabric welds each rail's flows into one large
//     component, so a port-1 access flip re-solves ~6K flows.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <limits>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "common/check.h"
#include "flowsim/maxmin.h"
#include "tests/support/reference_maxmin.h"
#include "topo/builders.h"

namespace {

using namespace hpn;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Distinct cap values (bps) so cap bottlenecks trigger many water-filling
/// rounds; exact ties within a bucket exercise the bulk-fixing path.
double cap_for(std::size_t i) {
  static constexpr std::size_t kDistinctCaps = 384;
  return 20e9 + 0.5e9 * static_cast<double>(i % kDistinctCaps);
}

std::uint64_t link_key(NodeId a, NodeId b) {
  return (static_cast<std::uint64_t>(a.index()) << 32) | b.index();
}

struct PodTraffic {
  std::vector<flowsim::FlowDemand> flows;
  std::size_t rail_ring_flows = 0;   ///< port-0 flows (small components)
  std::size_t cross_plane_flows = 0; ///< port-1 flows (one large component)
};

PodTraffic build_traffic(const topo::Cluster& c) {
  PodTraffic out;

  // Hosts grouped by segment (ring neighbors must be segment-local).
  std::vector<std::vector<const topo::Host*>> by_segment(
      static_cast<std::size_t>(c.segments_per_pod));
  for (const topo::Host& h : c.hosts) {
    by_segment[static_cast<std::size_t>(h.segment)].push_back(&h);
  }

  // Port-0 rail rings.
  static constexpr int kRingStrides[] = {1, 2, 3, 5};
  for (const auto& seg : by_segment) {
    const std::size_t n = seg.size();
    for (int rail = 0; rail < c.gpus_per_host; ++rail) {
      const auto r = static_cast<std::size_t>(rail);
      for (std::size_t i = 0; i < n; ++i) {
        for (const int stride : kRingStrides) {
          const topo::NicAttachment& src = seg[i]->nics[r];
          const topo::NicAttachment& dst =
              seg[(i + static_cast<std::size_t>(stride)) % n]->nics[r];
          HPN_CHECK_MSG(src.tor[0] == dst.tor[0],
                        "rail-optimized tier1: same segment+rail must share a ToR");
          flowsim::FlowDemand f;
          f.path = {src.access[0], c.topo.link(dst.access[0]).reverse};
          f.cap_bps = cap_for(out.flows.size());
          out.flows.push_back(std::move(f));
        }
      }
    }
  }
  out.rail_ring_flows = out.flows.size();

  // Tier-2 adjacency for plane-1 paths: ToR <-> Agg fabric links.
  std::unordered_map<std::uint64_t, LinkId> fabric;
  for (const topo::Link& l : c.topo.links()) {
    if (l.kind != topo::LinkKind::kFabric) continue;
    const topo::NodeKind sk = c.topo.node(l.src).kind;
    const topo::NodeKind dk = c.topo.node(l.dst).kind;
    if ((sk == topo::NodeKind::kTor && dk == topo::NodeKind::kAgg) ||
        (sk == topo::NodeKind::kAgg && dk == topo::NodeKind::kTor)) {
      fabric.emplace(link_key(l.src, l.dst), l.id);
    }
  }
  const std::vector<NodeId> plane1_aggs = c.aggs_of_plane(/*pod=*/0, /*plane=*/1);
  HPN_CHECK_MSG(!plane1_aggs.empty(), "paper pod must have plane-1 Aggs");

  // Port-1 cross-segment flows.
  static constexpr int kSegmentStrides[] = {1, 2, 3};
  const auto segments = static_cast<std::size_t>(c.segments_per_pod);
  for (std::size_t s = 0; s < segments; ++s) {
    const auto& seg = by_segment[s];
    for (std::size_t i = 0; i < seg.size(); ++i) {
      for (int rail = 0; rail < c.gpus_per_host; ++rail) {
        const auto r = static_cast<std::size_t>(rail);
        for (const int stride : kSegmentStrides) {
          const auto& dst_seg = by_segment[(s + static_cast<std::size_t>(stride)) % segments];
          const topo::NicAttachment& src = seg[i]->nics[r];
          const topo::NicAttachment& dst = dst_seg[i % dst_seg.size()]->nics[r];
          // Host index enters the hash with stride 1 (coprime to the agg
          // count) so every agg is used by every ring stride — that welds
          // all port-1 flows of a rail into a single conflict component.
          const NodeId agg =
              plane1_aggs[(i + r * 7 + static_cast<std::size_t>(stride) * 17) %
                          plane1_aggs.size()];
          const auto up = fabric.find(link_key(src.tor[1], agg));
          const auto down = fabric.find(link_key(agg, dst.tor[1]));
          HPN_CHECK_MSG(up != fabric.end() && down != fabric.end(),
                        "plane-1 ToR must reach every plane-1 Agg");
          flowsim::FlowDemand f;
          f.path = {src.access[1], up->second, down->second,
                    c.topo.link(dst.access[1]).reverse};
          f.cap_bps = cap_for(out.flows.size());
          out.flows.push_back(std::move(f));
        }
      }
    }
  }
  out.cross_plane_flows = out.flows.size() - out.rail_ring_flows;
  return out;
}

struct FlipTiming {
  double best_ms = std::numeric_limits<double>::infinity();
  std::size_t affected = 0;
};

/// Flip one access cable down+up `rounds` times; time each resolve.
FlipTiming time_flip(topo::Topology& topo, flowsim::IncrementalMaxMin& inc,
                     LinkId access, int rounds) {
  const LinkId rev = topo.link(access).reverse;
  FlipTiming t;
  for (int i = 0; i < rounds; ++i) {
    for (const bool up : {false, true}) {
      topo.set_duplex_up(access, up);
      inc.notify_link_changed(access);
      inc.notify_link_changed(rev);
      const auto t0 = Clock::now();
      const std::size_t affected = inc.resolve();
      t.best_ms = std::min(t.best_ms, ms_since(t0));
      if (!up) t.affected = affected;
    }
  }
  return t;
}

int run_pod_section(bool smoke) {
  topo::HpnConfig cfg = topo::HpnConfig::paper_pod();
  if (smoke) {
    cfg = topo::HpnConfig::tiny();
    cfg.segments_per_pod = 4;
    cfg.hosts_per_segment = 16;
  }
  const topo::Cluster c = topo::build_hpn(cfg);
  PodTraffic traffic = build_traffic(c);
  const std::size_t n = traffic.flows.size();
  std::cout << "flows: " << n << " (" << traffic.rail_ring_flows << " port-0 rail-ring + "
            << traffic.cross_plane_flows << " port-1 cross-segment)\n";
  HPN_CHECK_MSG(smoke || n >= 100000, "Pod-scale bench needs >= 100K flows");

  // Cold solves, best of a few runs; copies are made outside the timed region.
  const flowsim::ReferenceMaxMinSolver reference{c.topo};
  double ref_solve_ms = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 3; ++i) {
    auto copy = traffic.flows;
    const auto t0 = Clock::now();
    reference.solve(copy);
    ref_solve_ms = std::min(ref_solve_ms, ms_since(t0));
  }

  // Incremental engine: build once, then flip single access cables.
  topo::Topology& topo = const_cast<topo::Cluster&>(c).topo;
  flowsim::IncrementalMaxMin inc{topo};
  for (const flowsim::FlowDemand& f : traffic.flows) inc.add_flow(f.path, f.cap_bps);
  double inc_cold_ms = std::numeric_limits<double>::infinity();
  {
    const auto t0 = Clock::now();
    const std::size_t rated = inc.resolve();
    inc_cold_ms = ms_since(t0);
    HPN_CHECK_MSG(rated == n, "first resolve must rate every flow");
  }

  const LinkId rail_access = c.hosts.front().nics.front().access[0];
  const LinkId plane_access = c.hosts.front().nics.front().access[1];
  const FlipTiming rail = time_flip(topo, inc, rail_access, 25);
  const FlipTiming plane = time_flip(topo, inc, plane_access, 10);

  metrics::Table t{std::string{"max-min solver at "} + (smoke ? "smoke" : "paper-Pod") +
                   " scale (" + std::to_string(n) + " flows)"};
  t.columns({"scenario", "flows_rerated", "best_ms", "speedup_vs_reference"});
  const auto row = [&](const std::string& name, std::size_t rerated, double ms) {
    t.add_row({name, std::to_string(rerated), metrics::Table::num(ms, 3),
               metrics::Table::num(ref_solve_ms / ms, 1)});
  };
  row("reference_cold_solve", n, ref_solve_ms);
  row("incremental_first_resolve", n, inc_cold_ms);
  row("incremental_rail_access_flip", rail.affected, rail.best_ms);
  row("incremental_plane_access_flip", plane.affected, plane.best_ms);
  bench::emit(t, "microperf_solver");

  const double rail_speedup = ref_solve_ms / rail.best_ms;
  std::cout << "\nsingle rail-access flip re-rates " << rail.affected << "/" << n
            << " flows in " << metrics::Table::num(rail.best_ms, 3) << " ms — "
            << metrics::Table::num(rail_speedup, 1)
            << "x faster than a cold seed-solver solve ("
            << metrics::Table::num(ref_solve_ms, 1) << " ms)\n";
  if (smoke) return 0;
  HPN_CHECK_MSG(rail_speedup >= 10.0,
                "acceptance: incremental flip must be >= 10x the cold reference");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const hpn::bench::Args args = hpn::bench::Args::parse(argc, argv);
  hpn::bench::banner("Solver microperf — incremental re-solve at Pod scale",
                     "incremental re-solve after one link flip must beat a "
                     "cold seed solve by >= 10x at >= 100K Pod flows");
  return run_pod_section(args.smoke);
}
