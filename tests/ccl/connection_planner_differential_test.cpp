// Connection planner differential: ccl::ConnectionManager against the
// planner it replaced (tests/support/reference_connection_planner.h, which
// traces every source port of a slot's budget over the per-destination
// reference router). Each run drives both with one seeded sequence of
// establish() calls, repeats included, in three phases: all links up; one
// NIC with a port down and one with both down (an invalidate() between, so
// pairs toward the dark NIC park a dark connection); every port repaired
// (another invalidate()). After every call the two must agree on the ConnIds,
// each connection's tuple, path, planned_port and src_port_index, and the
// occupancy of every link; after each invalidate() on every connection's
// re-traced path. The production manager's traces plus the traces its
// early stops skipped must equal the reference's trace count.
//
// Swept: HPN tiny, the bench_cluster fleet shape, DCN+ over two Pods (Core
// per-port hashing on) and rail-only (cross-rail pairs park dark), each
// under conns_per_pair 1/2/4 x disjoint on/off x budget 8/256.
#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ccl/connection.h"
#include "common/rng.h"
#include "fabric/fabric.h"
#include "routing/router.h"
#include "tests/support/reference_connection_planner.h"
#include "tests/support/reference_router.h"
#include "topo/builders.h"

namespace hpn::ccl {
namespace {

struct Tally {
  std::size_t checks = 0;
  std::size_t mismatches = 0;
  std::string first;  ///< the first mismatch, for the failure message

  void expect(bool same, const std::string& what) {
    ++checks;
    if (same || mismatches++ > 0) return;
    first = what;
  }
};

/// Work summed over a shape's runs.
struct Work {
  std::uint64_t reference_traces = 0;
  ConnectionManager::Stats stats;
};

class Run {
 public:
  Run(topo::Cluster& cluster, routing::HashConfig hash, ConnectionConfig config,
      std::string label)
      : cluster_{&cluster},
        router_{cluster.topo, hash},
        reference_router_{cluster.topo, hash},
        cm_{cluster, router_, config},
        ref_{cluster, reference_router_, config},
        label_{std::move(label)} {}

  void establish(int src, int dst, Tally& tally) {
    const std::vector<ConnId>& got = cm_.establish(src, dst);
    const std::vector<ConnId>& want = ref_.establish(src, dst);
    std::ostringstream at;
    at << label_ << " establish(" << src << ", " << dst << ")";
    tally.expect(got == want, at.str() + ": ConnIds");
    if (got != want) return;
    for (const ConnId id : got) compare(cm_.connection(id), ref_.connection(id), at.str(), tally);
    std::size_t l = 0;
    while (l < cluster_->topo.link_count() &&
           cm_.fabric_usage(LinkId{static_cast<LinkId::underlying>(l)}) ==
               ref_.fabric_usage(LinkId{static_cast<LinkId::underlying>(l)})) {
      ++l;
    }
    tally.expect(l == cluster_->topo.link_count(),
                 at.str() + ": occupancy of link " + std::to_string(l));
  }

  /// Sets the fabric's link state, invalidates both routers, and compares
  /// every connection's re-traced path.
  void change_fabric(const std::vector<std::pair<LinkId, bool>>& duplex, Tally& tally) {
    for (const auto& [link, up] : duplex) cluster_->topo.set_duplex_up(link, up);
    router_.invalidate();
    reference_router_.invalidate();
    for (std::size_t i = 0; i < ref_.connection_count(); ++i) {
      const ConnId id{static_cast<ConnId::underlying>(i)};
      const routing::Path& got = cm_.path_of(id);
      const routing::Path& want = ref_.refresh(id);
      tally.expect(got.links == want.links, label_ + ": path_of(" + std::to_string(i) + ")");
      tally.expect(cm_.connection(id).src_port_index == ref_.connection(id).src_port_index,
                   label_ + ": src_port_index after refresh of " + std::to_string(i));
    }
  }

  void add_work(Work& work) const {
    work.reference_traces += ref_.traces();
    const ConnectionManager::Stats& st = cm_.stats();
    work.stats.pairs_planned += st.pairs_planned;
    work.stats.slots += st.slots;
    work.stats.traces += st.traces;
    work.stats.stopped_at_bound += st.stopped_at_bound;
    work.stats.traces_skipped += st.traces_skipped;
  }

  [[nodiscard]] const ConnectionManager& manager() const { return cm_; }
  [[nodiscard]] std::uint64_t reference_traces() const { return ref_.traces(); }

 private:
  static void compare(const Connection& got, const Connection& want, const std::string& at,
                      Tally& tally) {
    const std::string conn = at + ": connection " + std::to_string(want.id.value());
    tally.expect(got.id == want.id, conn + " id");
    tally.expect(got.src_rank == want.src_rank && got.dst_rank == want.dst_rank, conn + " ranks");
    tally.expect(got.tuple == want.tuple, conn + " tuple");
    tally.expect(got.path.links == want.path.links, conn + " path");
    tally.expect(got.planned_port == want.planned_port, conn + " planned_port");
    tally.expect(got.src_port_index == want.src_port_index, conn + " src_port_index");
  }

  topo::Cluster* cluster_;
  routing::Router router_;
  reference::Router reference_router_;
  ConnectionManager cm_;
  reference::ConnectionPlanner ref_;
  std::string label_;
};

/// `count` ordered pairs of distinct ranks among `members`; with few
/// members, pairs repeat and hit the planner's cache.
std::vector<std::pair<int, int>> draw_pairs(Rng& rng, const std::vector<int>& members,
                                            int count) {
  std::vector<std::pair<int, int>> pairs;
  while (static_cast<int>(pairs.size()) < count) {
    const int a = members[rng.uniform_index(members.size())];
    const int b = members[rng.uniform_index(members.size())];
    if (a != b) pairs.emplace_back(a, b);
  }
  return pairs;
}

struct Shape {
  const char* name;
  topo::Cluster (*build)();
  routing::HashConfig hash;
  int calls_per_phase;
  bool expect_stops;
};

/// Runs every planner config over `shape`; returns the summed work.
Work run_shape(const Shape& shape, Tally& tally) {
  Work work;
  int variant = 0;
  for (const int conns_per_pair : {1, 2, 4}) {
    for (const bool disjoint : {true, false}) {
      for (const int budget : {8, 256}) {
        topo::Cluster cluster = shape.build();
        ConnectionConfig config;
        config.conns_per_pair = conns_per_pair;
        config.disjoint_paths = disjoint;
        config.sport_search_budget = budget;
        config.allow_unreachable_establish = true;
        std::ostringstream label;
        label << shape.name << " conns=" << conns_per_pair << " disjoint=" << disjoint
              << " budget=" << budget;
        Run run{cluster, shape.hash, config, label.str()};

        Rng rng{std::uint64_t{0xC0FFEE} + static_cast<std::uint64_t>(variant++)};
        std::vector<int> members;
        for (int i = 0; i < std::min(cluster.gpu_count(), 48); ++i) {
          const auto ranks = static_cast<std::uint64_t>(cluster.gpu_count());
          members.push_back(static_cast<int>(rng.uniform_index(ranks)));
        }
        for (const auto& [src, dst] : draw_pairs(rng, members, shape.calls_per_phase)) {
          run.establish(src, dst, tally);
        }
        // One member's NIC loses a port, another's both: an invalidate()
        // mid-sequence, then pairs toward the dark NIC park dark.
        const topo::NicAttachment& half = cluster.nic_of(members[0]);
        const topo::NicAttachment& dark = cluster.nic_of(members[1]);
        std::vector<std::pair<LinkId, bool>> down{{half.access[0], false}};
        for (int p = 0; p < dark.ports; ++p) {
          down.emplace_back(dark.access[static_cast<std::size_t>(p)], false);
        }
        run.change_fabric(down, tally);
        for (const auto& [src, dst] : draw_pairs(rng, members, shape.calls_per_phase)) {
          run.establish(src, dst, tally);
        }
        std::vector<std::pair<LinkId, bool>> up = down;
        for (auto& link : up) link.second = true;
        run.change_fabric(up, tally);
        for (const auto& [src, dst] : draw_pairs(rng, members, shape.calls_per_phase)) {
          run.establish(src, dst, tally);
        }
        const ConnectionManager::Stats& st = run.manager().stats();
        tally.expect(st.traces + st.traces_skipped == run.reference_traces(),
                     label.str() + ": traces + skipped != reference traces");
        run.add_work(work);
      }
    }
  }
  return work;
}

void expect_shape_matches(const Shape& shape) {
  Tally tally;
  const Work work = run_shape(shape, tally);
  EXPECT_EQ(tally.mismatches, 0u) << "of " << tally.checks << " checks; first: " << tally.first;
  EXPECT_GT(work.stats.pairs_planned, 0u);
  // The sweep must really stop slots early where links fill up.
  if (shape.expect_stops) {
    EXPECT_GT(work.stats.stopped_at_bound, 0u);
  }
  std::cout << shape.name << ": " << work.stats.pairs_planned << " pairs, " << work.stats.slots
            << " slots, " << work.stats.traces << " traces vs " << work.reference_traces
            << " in the reference, " << work.stats.stopped_at_bound
            << " slots stopped at the bound; " << tally.checks << " checks\n";
}

topo::Cluster hpn_tiny() { return topo::build_hpn(topo::HpnConfig::tiny()); }

topo::Cluster bench_cluster_shape() {
  return fabric::fabric_or_throw("hpn").build(
      fabric::FabricScale{.pods = 1, .segments_per_pod = 4, .hosts_per_segment = 32});
}

topo::Cluster dcn_plus_two_pods() {
  return fabric::fabric_or_throw("dcn+").build(
      fabric::FabricScale{.pods = 2, .segments_per_pod = 2, .hosts_per_segment = 4});
}

topo::Cluster rail_only() {
  return fabric::fabric_or_throw("rail-only").build(
      fabric::FabricScale{.segments_per_pod = 2, .hosts_per_segment = 4});
}

TEST(ConnectionPlannerDifferential, HpnTiny) {
  expect_shape_matches(
      {"hpn-tiny", hpn_tiny, {.seeds = routing::SeedPolicy::kVendorFamily}, 60, true});
}

TEST(ConnectionPlannerDifferential, BenchClusterShape) {
  expect_shape_matches({"bench_cluster", bench_cluster_shape, {}, 80, true});
}

TEST(ConnectionPlannerDifferential, DcnPlusPerPortCore) {
  expect_shape_matches({"dcn+", dcn_plus_two_pods, {.per_port_at_core = true}, 300, true});
}

TEST(ConnectionPlannerDifferential, RailOnly) {
  expect_shape_matches(
      {"rail-only", rail_only, fabric::fabric_or_throw("rail-only").hash_policy(), 60, false});
}

}  // namespace
}  // namespace hpn::ccl
