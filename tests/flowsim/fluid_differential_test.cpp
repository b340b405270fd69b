// Differential suite: the dense fluid engine (flows in ascending FlowId
// order, paths as spans into one hop array, link feedback computed once per
// link) must be *bit-identical* to the hash-map engine it replaced
// (tests/support/reference_fluid.h) walked in ascending FlowId order: every
// tick's queue, arrival rate and delivered rate per link, every flow's rate
// and goodput, the completion order, the auditor's verdict and the tracer
// bytes. Any divergence is a bug in the rewrite, never a tolerance question.
//
// FluidBucketOrder runs the reference in its original map order at two
// bucket counts, which is the question the rewrite settles: did the
// standard library's bucket layout reach the output?
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "flowsim/fluid.h"
#include "tests/support/reference_fluid.h"
#include "topo/topology.h"

namespace hpn::flowsim {
namespace {

using testing::ReferenceFluidOptions;
using testing::ReferenceFluidSimulator;
using topo::LinkKind;
using topo::NodeKind;
using topo::Topology;

struct FlowPlan {
  std::vector<LinkId> path;
  Bandwidth cap;
  DataSize size = DataSize::zero();  ///< zero = infinite
  Duration start = Duration::zero();
  Duration stop_after = Duration::zero();  ///< zero = never stopped
  int follow_ups = 0;  ///< Finite flows its completion callback starts, chained.
};

struct Scenario {
  std::uint64_t seed = 0;
  Topology topo;
  FluidConfig cfg;
  std::vector<FlowPlan> flows;
  std::vector<std::vector<LinkId>> follow_paths;  ///< Paths follow-ups draw from.
  bool audit = false;
  int ticks = 0;
};

/// A random walk of 1..max_hops links along the topology's adjacency.
std::vector<LinkId> random_walk(const Topology& t, Rng& rng, int max_hops) {
  std::vector<LinkId> path;
  NodeId at{static_cast<NodeId::underlying>(rng.uniform_index(t.node_count()))};
  const auto hops = rng.uniform_int(1, max_hops);
  for (std::int64_t h = 0; h < hops; ++h) {
    const auto out = t.out_links(at);
    if (out.empty()) break;
    const LinkId l = out[rng.uniform_index(out.size())];
    path.push_back(l);
    at = t.link(l).dst;
  }
  return path;
}

Scenario random_scenario(std::uint64_t seed) {
  Scenario sc;
  sc.seed = seed;
  Rng rng{seed};
  const auto nodes = rng.uniform_int(3, 10);
  for (std::int64_t i = 0; i < nodes; ++i) {
    std::string name = "n";
    name += std::to_string(i);
    sc.topo.add_node(i == 0 ? NodeKind::kTor : NodeKind::kNic, std::move(name));
  }
  // A spanning chain keeps every node reachable; extra cables add cycles.
  // Capacities are distinct so per-link arithmetic differs link to link.
  const auto cables = nodes - 1 + rng.uniform_int(0, 2 * nodes);
  for (std::int64_t c = 0; c < cables; ++c) {
    const auto a = c < nodes - 1 ? c : rng.uniform_int(0, nodes - 1);
    auto b = c < nodes - 1 ? c + 1 : rng.uniform_int(0, nodes - 2);
    if (c >= nodes - 1 && b >= a) ++b;
    sc.topo.add_duplex_link(NodeId{static_cast<NodeId::underlying>(a)},
                            NodeId{static_cast<NodeId::underlying>(b)}, LinkKind::kFabric,
                            Bandwidth::gbps(rng.uniform_real(20.0, 400.0)),
                            Duration::micros(1));
  }
  sc.cfg.tick = Duration::micros(rng.uniform_int(20, 200));
  sc.cfg.ecn_kmin = DataSize::kilobytes(rng.uniform_int(5, 50));
  sc.cfg.ecn_kmax = DataSize::kilobytes(rng.uniform_int(200, 2000));
  sc.cfg.trace_sample_every = static_cast<int>(rng.uniform_int(1, 4)) * 2 - 1;  // 1, 3, 5, 7
  sc.audit = rng.uniform_index(2) == 0;
  sc.ticks = 400;

  const auto flows = rng.uniform_int(4, 40);
  for (std::int64_t i = 0; i < flows; ++i) {
    FlowPlan f;
    f.path = random_walk(sc.topo, rng, 5);
    f.cap = Bandwidth::gbps(rng.uniform_real(10.0, 400.0));
    if (rng.uniform_index(3) != 0) {
      f.size = DataSize::bytes(rng.uniform_int(50'000, 20'000'000));
      f.follow_ups = static_cast<int>(rng.uniform_int(0, 3));
    } else if (rng.uniform_index(2) == 0) {
      f.stop_after = sc.cfg.tick * static_cast<double>(rng.uniform_int(1, 200)) + Duration::nanos(7);
    }
    if (rng.uniform_index(2) == 0) {
      f.start = sc.cfg.tick * static_cast<double>(rng.uniform_int(0, 100)) + Duration::nanos(rng.uniform_int(0, 999));
    }
    sc.flows.push_back(std::move(f));
  }
  for (int i = 0; i < 8; ++i) sc.follow_paths.push_back(random_walk(sc.topo, rng, 4));
  return sc;
}

/// Star: `senders` NICs -> ToR -> one destination NIC, so every flow shares
/// the ToR's egress. Each flow has its own cap.
Scenario shared_bottleneck(int senders) {
  Scenario sc;
  sc.seed = 17;
  const NodeId tor = sc.topo.add_node(NodeKind::kTor, "tor");
  const NodeId dst = sc.topo.add_node(NodeKind::kNic, "dst");
  const LinkId egress = sc.topo
                            .add_duplex_link(tor, dst, LinkKind::kAccess, Bandwidth::gbps(400),
                                             Duration::micros(1))
                            .forward;
  for (int i = 0; i < senders; ++i) {
    const NodeId nic = sc.topo.add_node(NodeKind::kNic, "src" + std::to_string(i));
    const LinkId up = sc.topo
                          .add_duplex_link(nic, tor, LinkKind::kAccess,
                                           Bandwidth::gbps(200 + 3 * i), Duration::micros(1))
                          .forward;
    FlowPlan f;
    f.path = {up, egress};
    f.cap = Bandwidth::gbps(37.0 + 11.3 * i);
    if (i % 3 == 0) f.size = DataSize::kilobytes(2'000 + 700 * i);
    sc.flows.push_back(std::move(f));
  }
  sc.cfg.ecn_kmin = DataSize::kilobytes(20);
  sc.cfg.ecn_kmax = DataSize::kilobytes(800);
  sc.ticks = 300;
  return sc;
}

/// One engine run of a scenario, stepped a tick at a time.
template <typename Engine, typename... Extra>
struct EngineRun {
  const Scenario* sc;
  sim::Simulator sim;
  std::unique_ptr<Engine> eng;
  Rng rng;  ///< Callbacks draw from it; equal only while the call order is.
  std::vector<std::pair<std::int64_t, FlowId::underlying>> finished;
  std::vector<FlowId> infinite;
  std::string stops;  ///< One char per stop_flow call: its result.
  FlowId::underlying max_id = 0;

  explicit EngineRun(const Scenario& s, Extra... extra) : sc{&s}, rng{s.seed ^ 0xF1u} {
    if (s.audit) sim.auditor().enable();
    sim.tracer().enable(1u << 16);
    sim.tracer().watch_all_links(true);
    eng = std::make_unique<Engine>(s.topo, sim, s.cfg, extra...);
    for (std::size_t i = 0; i < s.flows.size(); ++i) {
      if (s.flows[i].start == Duration::zero()) {
        start(i);
      } else {
        sim.schedule_at(TimePoint::origin() + s.flows[i].start, [this, i] { start(i); });
      }
    }
  }

  void note(FlowId id) { max_id = std::max(max_id, id.value()); }

  void start(std::size_t i) {
    const FlowPlan& f = sc->flows[i];
    FlowId id;
    if (f.size == DataSize::zero()) {
      id = eng->start_flow(f.path, f.cap);
      infinite.push_back(id);
    } else {
      id = eng->start_flow(f.path, f.cap, f.size,
                           [this, n = f.follow_ups](FlowId done) { on_done(done, n); });
    }
    note(id);
    if (f.stop_after > Duration::zero()) {
      sim.schedule_after(f.stop_after, [this, id] { stop(id); });
    }
  }

  void stop(FlowId id) { stops += eng->stop_flow(id) ? 'y' : 'n'; }

  void on_done(FlowId id, int follow_ups) {
    finished.emplace_back(sim.now().as_nanos(), id.value());
    if (follow_ups > 0 && !sc->follow_paths.empty()) {
      const auto& path = sc->follow_paths[rng.uniform_index(sc->follow_paths.size())];
      if (!path.empty()) {
        const Bandwidth cap = Bandwidth::gbps(rng.uniform_real(10.0, 300.0));
        const DataSize size = DataSize::bytes(rng.uniform_int(10'000, 5'000'000));
        note(eng->start_flow(path, cap, size, [this, n = follow_ups - 1](FlowId done) {
          on_done(done, n);
        }));
      }
    }
    // Now and then a completion also stops a flow that runs forever.
    if (!infinite.empty() && rng.uniform_index(4) == 0) {
      stop(infinite.front());
      infinite.erase(infinite.begin());
    }
  }

  [[nodiscard]] std::string trace_csv() const {
    std::ostringstream os;
    sim.tracer().write_csv(os);
    return os.str();
  }
};

using DenseRun = EngineRun<FluidSimulator>;
using ReferenceRun = EngineRun<ReferenceFluidSimulator, ReferenceFluidOptions>;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Steps both runs tick by tick and counts every observable that differs.
std::size_t run_lockstep(const Scenario& sc, DenseRun& dense, ReferenceRun& ref,
                         std::size_t& observations) {
  std::size_t mismatches = 0;
  const auto expect = [&](bool equal, const std::string& what, int tick) {
    ++observations;
    if (equal) return;
    if (++mismatches <= 5) {
      ADD_FAILURE() << "seed " << sc.seed << " tick " << tick << ": " << what << " differs";
    }
  };
  const std::size_t links = sc.topo.link_count();
  for (int tick = 0; tick < sc.ticks; ++tick) {
    dense.sim.run_for(sc.cfg.tick);
    ref.sim.run_for(sc.cfg.tick);
    for (std::size_t l = 0; l < links; ++l) {
      const LinkId id{static_cast<LinkId::underlying>(l)};
      expect(dense.eng->queue_of(id) == ref.eng->queue_of(id),
             "queue_of(" + std::to_string(l) + ")", tick);
      expect(same_bits(dense.eng->arrival_rate(id).as_bits_per_sec(),
                       ref.eng->arrival_rate(id).as_bits_per_sec()),
             "arrival_rate(" + std::to_string(l) + ")", tick);
      expect(same_bits(dense.eng->delivered_rate(id).as_bits_per_sec(),
                       ref.eng->delivered_rate(id).as_bits_per_sec()),
             "delivered_rate(" + std::to_string(l) + ")", tick);
    }
    const FlowId::underlying top = std::max(dense.max_id, ref.max_id);
    for (FlowId::underlying f = 1; f <= top + 1; ++f) {
      const FlowId id{f};
      expect(same_bits(dense.eng->flow_rate(id).as_bits_per_sec(),
                       ref.eng->flow_rate(id).as_bits_per_sec()),
             "flow_rate(" + std::to_string(f) + ")", tick);
      expect(same_bits(dense.eng->flow_goodput(id).as_bits_per_sec(),
                       ref.eng->flow_goodput(id).as_bits_per_sec()),
             "flow_goodput(" + std::to_string(f) + ")", tick);
    }
    expect(dense.eng->active_flows() == ref.eng->active_flows(), "active_flows", tick);
  }
  expect(dense.finished == ref.finished, "completion order", sc.ticks);
  expect(dense.stops == ref.stops, "stop_flow results", sc.ticks);
  expect(dense.sim.scheduled_events() == ref.sim.scheduled_events(), "scheduled events",
         sc.ticks);
  expect(dense.sim.auditor().violation_count() == ref.sim.auditor().violation_count(),
         "auditor violations", sc.ticks);
  expect(dense.trace_csv() == ref.trace_csv(), "tracer bytes", sc.ticks);
  return mismatches;
}

TEST(FluidDifferential, RandomFabricsMatchTheAscendingReference) {
  std::size_t observations = 0, mismatches = 0, finished = 0, stops = 0, audited = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Scenario sc = random_scenario(seed);
    DenseRun dense{sc};
    ReferenceRun ref{sc, ReferenceFluidOptions{.ascending = true}};
    mismatches += run_lockstep(sc, dense, ref, observations);
    finished += dense.finished.size();
    stops += dense.stops.size();
    if (sc.audit) {
      ++audited;
      EXPECT_TRUE(dense.sim.auditor().ok()) << dense.sim.auditor().report();
    }
  }
  std::cout << "[differential] fluid: 40 fabrics, " << observations << " observations, "
            << finished << " completions, " << stops << " stops, " << audited
            << " audited, " << mismatches << " mismatches\n";
  EXPECT_EQ(mismatches, 0u);
  // The scenarios must reach the paths the suite claims to cover.
  EXPECT_GT(finished, 100u);
  EXPECT_GT(stops, 10u);
  EXPECT_GT(audited, 5u);
}

TEST(FluidDifferential, SharedBottleneckMatchesTheAscendingReference) {
  for (const bool audit : {false, true}) {
    Scenario sc = shared_bottleneck(24);
    sc.audit = audit;
    sc.cfg.trace_sample_every = audit ? 3 : 1;
    DenseRun dense{sc};
    ReferenceRun ref{sc, ReferenceFluidOptions{.ascending = true}};
    std::size_t observations = 0;
    EXPECT_EQ(run_lockstep(sc, dense, ref, observations), 0u);
    EXPECT_FALSE(dense.finished.empty());
  }
}

TEST(FluidDifferential, CompletionsRunInAscendingFlowIdOrderAfterCompaction) {
  // Five equal flows on disjoint links finish in the same tick. Each
  // callback sees every one of them gone already, and they fire in id order.
  Topology t;
  sim::Simulator s;
  const NodeId tor = t.add_node(NodeKind::kTor, "tor");
  std::vector<LinkId> up;
  for (int i = 0; i < 5; ++i) {
    const NodeId nic = t.add_node(NodeKind::kNic, "nic" + std::to_string(i));
    up.push_back(t.add_duplex_link(nic, tor, LinkKind::kAccess, Bandwidth::gbps(100),
                                   Duration::micros(1))
                     .forward);
  }
  FluidSimulator fl{t, s};
  std::vector<FlowId> order;
  std::vector<std::size_t> active_seen;
  FlowId late{};
  for (const int i : {4, 1, 3, 0, 2}) {
    fl.start_flow({up[static_cast<std::size_t>(i)]}, Bandwidth::gbps(100),
                  DataSize::megabytes(1), [&](FlowId id) {
                    order.push_back(id);
                    active_seen.push_back(fl.active_flows());
                    // A callback may start a flow; it joins the next tick.
                    if (order.size() == 1) late = fl.start_flow({up[0]}, Bandwidth::gbps(1));
                  });
  }
  s.run_for(Duration::millis(1));
  ASSERT_EQ(order.size(), 5u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], FlowId{static_cast<FlowId::underlying>(i + 1)});
  EXPECT_EQ(active_seen, (std::vector<std::size_t>{0, 1, 1, 1, 1}));
  EXPECT_EQ(late, FlowId{6});
  EXPECT_GT(fl.flow_rate(late).as_gbps(), 0.0);
  EXPECT_TRUE(fl.stop_flow(late));
  EXPECT_FALSE(fl.stop_flow(late));
  EXPECT_EQ(fl.active_flows(), 0u);
}

// ROADMAP item 5's question: does the standard library's bucket layout reach
// the output? The reference walks its unordered_map in bucket order; run it
// at two bucket counts over flows with distinct caps on one bottleneck and
// compare the tracer bytes. The answer depends on the library, so it is
// reported (stdout and the test's XML properties), not pinned; what is
// pinned is that the two runs walk different orders, and that the dense
// engine's bytes equal the ascending walk's at either bucket count.
TEST(FluidBucketOrder, TwoBucketCountsOnASharedBottleneck) {
  Scenario sc = shared_bottleneck(24);
  sc.cfg.trace_sample_every = 1;
  ReferenceRun small{sc, ReferenceFluidOptions{.reserve_buckets = 0}};
  ReferenceRun large{sc, ReferenceFluidOptions{.reserve_buckets = 1031}};
  ASSERT_NE(small.eng->bucket_count(), large.eng->bucket_count());
  EXPECT_NE(small.eng->iteration_order(), large.eng->iteration_order())
      << "the two bucket counts must walk the flows in different orders";
  small.sim.run_for(sc.cfg.tick * static_cast<double>(sc.ticks));
  large.sim.run_for(sc.cfg.tick * static_cast<double>(sc.ticks));
  const std::string a = small.trace_csv();
  const std::string b = large.trace_csv();
  std::size_t first_diff = 0;
  while (first_diff < std::min(a.size(), b.size()) && a[first_diff] == b[first_diff]) {
    ++first_diff;
  }
  const bool differ = a != b;
  std::cout << "[bucket-order] " << small.eng->bucket_count() << " vs "
            << large.eng->bucket_count() << " buckets: tracer bytes "
            << (differ ? "differ (first at byte " + std::to_string(first_diff) + " of " +
                             std::to_string(a.size()) + ")"
                       : "are identical")
            << ", completion order " << (small.finished == large.finished ? "same" : "differs")
            << "\n";
  ::testing::Test::RecordProperty("tracer_bytes_differ", differ ? "yes" : "no");

  ReferenceRun small_sorted{
      sc, ReferenceFluidOptions{.reserve_buckets = 0, .ascending = true}};
  ReferenceRun large_sorted{
      sc, ReferenceFluidOptions{.reserve_buckets = 1031, .ascending = true}};
  DenseRun dense{sc};
  for (auto* d : {&small_sorted, &large_sorted}) d->sim.run_for(sc.cfg.tick * static_cast<double>(sc.ticks));
  dense.sim.run_for(sc.cfg.tick * static_cast<double>(sc.ticks));
  EXPECT_EQ(small_sorted.trace_csv(), large_sorted.trace_csv());
  EXPECT_EQ(dense.trace_csv(), small_sorted.trace_csv());
}

}  // namespace
}  // namespace hpn::flowsim
