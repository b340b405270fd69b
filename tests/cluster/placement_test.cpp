// PlacementEngine property battery: the invariants every policy must hold
// under arbitrary allocate/release sequences —
//   * allocations never overlap and never touch backup hosts;
//   * released hosts return to the pool (the engine never leaks capacity);
//   * locality/frag-min never split a job across segments when some single
//     segment could hold it;
//   * the whole engine is deterministic, including kRandom (per-job salted
//     draws, independent of wall history).
#include "cluster/placement.h"

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "fabric/fabric.h"
#include "topo/builders.h"
#include "topo/cluster.h"
#include "workload/traffic.h"

namespace hpn::cluster {
namespace {

topo::Cluster test_cluster() {
  // 4 segments x 8 hosts on the tiny HPN radix — small enough that the
  // randomized battery churns through full-pool states quickly.
  return fabric::fabric_or_throw("hpn").build(
      fabric::FabricScale{/*pods=*/1, /*segments_per_pod=*/4,
                          /*hosts_per_segment=*/8, /*gpus_per_host=*/8});
}

int segment_of(const topo::Cluster& c, int host) {
  return c.hosts.at(static_cast<std::size_t>(host)).pod * 1000 +
         c.hosts.at(static_cast<std::size_t>(host)).segment;
}

int segments_spanned(const topo::Cluster& c, const std::vector<int>& hosts) {
  std::set<int> segs;
  for (const int h : hosts) segs.insert(segment_of(c, h));
  return static_cast<int>(segs.size());
}

/// Drives one policy through a seeded allocate/release churn, checking the
/// shared invariants after every step.
void churn(Policy policy, std::uint64_t seed) {
  const topo::Cluster cluster = test_cluster();
  PlacementEngine engine{cluster, policy, seed};
  const int total = engine.schedulable_hosts();
  ASSERT_GT(total, 0);

  Rng rng{seed ^ 0xC1u};
  struct Live {
    int id;
    std::vector<int> hosts;
  };
  std::vector<Live> live;
  std::set<int> occupied;
  int next_id = 0;

  for (int step = 0; step < 400; ++step) {
    const bool do_release = !live.empty() && rng.bernoulli(0.4);
    if (do_release) {
      const std::size_t pick = rng.uniform_index(live.size());
      for (const int h : live[pick].hosts) occupied.erase(h);
      engine.release(live[pick].hosts);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      const int need = 1 + static_cast<int>(rng.uniform_index(10));
      const int free_before = engine.free_hosts();
      const int largest_block = engine.largest_free_block();
      const auto alloc = engine.allocate(next_id, need);
      // A policy may only fail when the pool genuinely lacks the hosts.
      EXPECT_EQ(alloc.has_value(), need <= free_before);
      if (!alloc) continue;
      EXPECT_EQ(static_cast<int>(alloc->hosts.size()), need);
      EXPECT_EQ(alloc->segments_spanned, segments_spanned(cluster, alloc->hosts));
      for (const int h : alloc->hosts) {
        EXPECT_FALSE(cluster.hosts.at(static_cast<std::size_t>(h)).backup)
            << "policy handed out a backup host";
        EXPECT_TRUE(occupied.insert(h).second)
            << "host " << h << " double-allocated at step " << step;
      }
      if (policy != Policy::kRandom && need <= largest_block) {
        EXPECT_EQ(alloc->segments_spanned, 1)
            << "segment-affine policy split a " << need
            << "-host job although a block of " << largest_block << " was free";
      }
      live.push_back({next_id, alloc->hosts});
      ++next_id;
    }
    EXPECT_EQ(engine.free_hosts(), total - static_cast<int>(occupied.size()));
    EXPECT_GE(engine.fragmentation(), 0.0);
    EXPECT_LE(engine.fragmentation(), 1.0);
  }

  // Drain: everything released must come back, down to the exact count.
  for (const auto& l : live) engine.release(l.hosts);
  EXPECT_EQ(engine.free_hosts(), total);
  EXPECT_EQ(engine.largest_free_block(), total / 4)
      << "a drained pool must hold 4 whole free segments";
  const auto full = engine.allocate(next_id, total);
  ASSERT_TRUE(full.has_value()) << "freed hosts did not return to the pool";
  EXPECT_EQ(static_cast<int>(full->hosts.size()), total);
}

TEST(PlacementProperties, LocalityChurnHoldsInvariants) {
  for (const std::uint64_t seed : {1u, 7u, 2024u}) churn(Policy::kLocalityAware, seed);
}

TEST(PlacementProperties, FragMinChurnHoldsInvariants) {
  for (const std::uint64_t seed : {1u, 7u, 2024u}) churn(Policy::kFragMin, seed);
}

TEST(PlacementProperties, RandomChurnHoldsInvariants) {
  for (const std::uint64_t seed : {1u, 7u, 2024u}) churn(Policy::kRandom, seed);
}

TEST(PlacementProperties, LocalityPrefersEmptiestFittingSegment) {
  const topo::Cluster cluster = test_cluster();
  PlacementEngine engine{cluster, Policy::kLocalityAware, 1};
  // Unbalance the pool: take 6 of 8 hosts in segment 0, 2 in segment 1.
  const auto a = engine.allocate(0, 6);
  const auto b = engine.allocate(1, 2);
  ASSERT_TRUE(a && b);
  // A 4-host job fits in segments 1..3; locality must not split it and must
  // land it in one segment.
  const auto c = engine.allocate(2, 4);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->segments_spanned, 1);
}

TEST(PlacementProperties, FragMinPrefersTightestFittingSegment) {
  const topo::Cluster cluster = test_cluster();
  PlacementEngine engine{cluster, Policy::kFragMin, 1};
  // Leave segment 0 with exactly 3 free hosts, others with 8.
  const auto a = engine.allocate(0, 5);
  ASSERT_TRUE(a.has_value());
  ASSERT_EQ(a->segments_spanned, 1);
  // A 3-host job fits everywhere; frag-min takes the tightest hole so the
  // three full segments stay whole.
  const auto b = engine.allocate(1, 3);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->segments_spanned, 1);
  EXPECT_EQ(segment_of(cluster, b->hosts.front()),
            segment_of(cluster, a->hosts.front()));
}

TEST(PlacementProperties, OversizeJobSpillsOverTheFewestSegments) {
  const topo::Cluster cluster = test_cluster();
  PlacementEngine engine{cluster, Policy::kFragMin, 1};
  const auto a = engine.allocate(0, 12);  // 12 hosts > 8 per segment
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->hosts.size(), 12u);
  EXPECT_EQ(a->segments_spanned, 2);
}

TEST(PlacementProperties, DoubleReleaseThrows) {
  const topo::Cluster cluster = test_cluster();
  PlacementEngine engine{cluster, Policy::kFragMin, 1};
  const auto a = engine.allocate(0, 4);
  ASSERT_TRUE(a.has_value());
  engine.release(a->hosts);
  EXPECT_EQ(engine.free_hosts(), engine.schedulable_hosts());
  EXPECT_THROW(engine.release(a->hosts), CheckError);
}

TEST(PlacementProperties, BackupHostsNotSchedulable) {
  auto cfg = topo::HpnConfig::tiny();
  cfg.segments_per_pod = 1;
  cfg.hosts_per_segment = 4;
  cfg.backup_hosts_per_segment = 2;
  const topo::Cluster cluster = topo::build_hpn(cfg);
  PlacementEngine engine{cluster, Policy::kFragMin, 1};
  EXPECT_EQ(engine.schedulable_hosts(), 4);  // 2 backups excluded
  const auto a = engine.allocate(0, 4);
  ASSERT_TRUE(a.has_value());
  for (const int h : a->hosts) {
    EXPECT_FALSE(cluster.hosts.at(static_cast<std::size_t>(h)).backup);
  }
}

// The §3 claim as a statistical property: with HPN-sized segments almost
// every production job fits one segment; with DCN+-sized segments almost
// none of the big ones do. Best-fit (frag-min) placement, as in the
// sec3_job_locality bench.
TEST(PlacementProperties, SegmentSizeDrivesLocality) {
  auto fraction_single_segment = [](int hosts_per_segment, int segments) {
    auto cfg = topo::HpnConfig::tiny();
    cfg.hosts_per_segment = hosts_per_segment;
    cfg.segments_per_pod = segments;
    cfg.tor_uplinks = 4;
    cfg.aggs_per_plane = 4;
    const topo::Cluster c = topo::build_hpn(cfg);
    PlacementEngine engine{c, Policy::kFragMin, 1};
    workload::JobSizeModel model{21};  // same stream for both fabrics
    int single = 0, placed = 0;
    std::vector<std::vector<int>> running;
    for (int i = 0; i < 300; ++i) {
      const int gpus = model.sample_gpus();
      const int hosts = (gpus + c.gpus_per_host - 1) / c.gpus_per_host;
      auto a = engine.allocate(i, hosts);
      if (!a.has_value()) {
        // Drain everything and retry (batch scheduler behavior).
        for (const auto& held : running) engine.release(held);
        running.clear();
        a = engine.allocate(i, hosts);
        if (!a.has_value()) continue;  // bigger than the whole cluster
      }
      ++placed;
      single += a->segments_spanned == 1;
      running.push_back(std::move(a->hosts));
    }
    return placed ? static_cast<double>(single) / placed : 0.0;
  };

  // HPN-shaped: 128-host (1024-GPU) segments. DCN+-shaped: 16-host ones.
  const double hpn = fraction_single_segment(128, 2);
  const double dcn = fraction_single_segment(16, 16);
  EXPECT_GT(hpn, 0.9);   // paper: 96.3%
  EXPECT_LT(dcn, 0.75);  // most nontrivial jobs cross segments
  EXPECT_GT(hpn, dcn + 0.2);
}

TEST(PlacementProperties, RandomIsDeterministicPerJobId) {
  const topo::Cluster cluster = test_cluster();
  PlacementEngine lhs{cluster, Policy::kRandom, 2024};
  PlacementEngine rhs{cluster, Policy::kRandom, 2024};
  for (int id = 0; id < 8; ++id) {
    const auto l = lhs.allocate(id, 3);
    const auto r = rhs.allocate(id, 3);
    ASSERT_TRUE(l && r);
    EXPECT_EQ(l->hosts, r->hosts) << "job " << id;
  }
}

TEST(PlacementProperties, RandomKeepsDrawOrder) {
  // Ranks are assigned in allocation order, so the scattered draw order is
  // semantically load-bearing: sorting it would collapse the ring-neighbor
  // scatter the policy exists to model.
  const topo::Cluster cluster = test_cluster();
  PlacementEngine engine{cluster, Policy::kRandom, 7};
  bool saw_unsorted = false;
  for (int id = 0; id < 6 && !saw_unsorted; ++id) {
    const auto a = engine.allocate(id, 5);
    ASSERT_TRUE(a.has_value());
    saw_unsorted = !std::is_sorted(a->hosts.begin(), a->hosts.end());
  }
  EXPECT_TRUE(saw_unsorted) << "random draws came back sorted — scatter lost";
}

TEST(PlacementNames, RoundTrip) {
  for (const Policy p : {Policy::kRandom, Policy::kLocalityAware, Policy::kFragMin}) {
    const auto back = policy_from_string(to_string(p));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
  }
  EXPECT_FALSE(policy_from_string("bogus").has_value());
  EXPECT_NE(policy_names().find("locality"), std::string::npos);
}

}  // namespace
}  // namespace hpn::cluster
