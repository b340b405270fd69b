// Cross-engine validation: the same incast + victim-flow scenario through
// the fluid (tick-based DCQCN limit) and packet (per-MTU DCQCN) engines
// must land on the same equilibrium — bottleneck throughput at capacity,
// victim goodput near line rate, and a standing queue inside the ECN
// marking band. Queue depths are read through the tracer probes so this
// also validates that both engines report kQueueDepth in the same unit
// (bytes). The agreement bounds asserted here are recorded in
// EXPERIMENTS.md ("Tracing" section).
#include <gtest/gtest.h>

#include <algorithm>

#include "flowsim/fluid.h"
#include "flowsim/packet.h"
#include "flowsim/session.h"
#include "metrics/trace.h"
#include "topo/topology.h"

namespace hpn::flowsim {
namespace {

using topo::LinkKind;
using topo::NodeKind;
using topo::Topology;

constexpr int kSenders = 4;

// 4 sender NICs -> ToR -> 1 destination NIC (the incast), plus a victim
// NIC reached from sender 0 through the same ToR but an idle egress port.
struct IncastTopo {
  Topology t;
  std::vector<LinkId> up;  // sender i -> tor
  LinkId bottleneck{};     // tor -> dst
  LinkId victim_egress{};  // tor -> victim NIC (idle but for the victim flow)

  IncastTopo() {
    const NodeId tor = t.add_node(NodeKind::kTor, "tor");
    const NodeId dst = t.add_node(NodeKind::kNic, "dst");
    const NodeId vic = t.add_node(NodeKind::kNic, "vic");
    for (int i = 0; i < kSenders; ++i) {
      const NodeId nic = t.add_node(NodeKind::kNic, "src" + std::to_string(i));
      up.push_back(t.add_duplex_link(nic, tor, LinkKind::kAccess, Bandwidth::gbps(100),
                                     Duration::micros(1))
                       .forward);
    }
    bottleneck = t.add_duplex_link(tor, dst, LinkKind::kAccess, Bandwidth::gbps(100),
                                   Duration::micros(1))
                     .forward;
    victim_egress = t.add_duplex_link(tor, vic, LinkKind::kAccess, Bandwidth::gbps(100),
                                      Duration::micros(1))
                        .forward;
  }
};

struct EngineResult {
  double bottleneck_gbps = 0.0;   ///< Delivered rate through the incast port.
  double victim_gbps = 0.0;       ///< Victim flow goodput at steady state.
  double queue_mean_kb = 0.0;     ///< Mean sampled bottleneck queue (tracer).
  double queue_peak_kb = 0.0;     ///< Peak sampled bottleneck queue (tracer).
};

double mean_after(const metrics::TimeSeries& s, TimePoint from) {
  double sum = 0.0;
  int n = 0;
  for (const auto& p : s.points()) {
    if (p.at < from) continue;
    sum += p.value;
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

double peak_after(const metrics::TimeSeries& s, TimePoint from) {
  double peak = 0.0;
  for (const auto& p : s.points()) {
    if (p.at >= from) peak = std::max(peak, p.value);
  }
  return peak;
}

// Shared ECN band so the two control laws aim at the same equilibrium zone.
const DataSize kEcnKmin = DataSize::kilobytes(10);
const DataSize kEcnKmax = DataSize::megabytes(1);

EngineResult run_fluid(const IncastTopo& topo) {
  sim::Simulator s;
  s.auditor().enable();
  s.tracer().enable();
  s.tracer().watch_link(topo.bottleneck);
  FluidConfig cfg;
  cfg.ecn_kmin = kEcnKmin;
  cfg.ecn_kmax = kEcnKmax;
  FluidSimulator fl{topo.t, s, cfg};
  for (int i = 0; i < kSenders; ++i) {
    fl.start_flow({topo.up[static_cast<std::size_t>(i)], topo.bottleneck},
                  Bandwidth::gbps(100));
  }
  const FlowId victim =
      fl.start_flow({topo.up[0], topo.victim_egress}, Bandwidth::gbps(100));
  s.run_for(Duration::millis(200));
  EXPECT_TRUE(s.auditor().ok()) << s.auditor().report();

  EngineResult r;
  r.bottleneck_gbps = fl.delivered_rate(topo.bottleneck).as_gbps();
  r.victim_gbps = fl.flow_goodput(victim).as_gbps();
  const metrics::TimeSeries q = s.tracer().series(
      metrics::TraceEventKind::kQueueDepth,
      static_cast<std::uint32_t>(topo.bottleneck.value()));
  const TimePoint settle = TimePoint::origin() + Duration::millis(100);
  r.queue_mean_kb = mean_after(q, settle) / 1e3;
  r.queue_peak_kb = peak_after(q, settle) / 1e3;
  return r;
}

EngineResult run_packet(const IncastTopo& topo) {
  sim::Simulator s;
  s.auditor().enable();
  s.tracer().enable(1u << 21);  // per-packet queue samples are dense
  s.tracer().watch_link(topo.bottleneck);
  PacketSimConfig cfg;
  cfg.ecn_kmin = kEcnKmin;
  cfg.ecn_kmax = kEcnKmax;
  PacketSimulator ps{topo.t, s, cfg};
  for (int i = 0; i < kSenders; ++i) {
    ps.start_flow({topo.up[static_cast<std::size_t>(i)], topo.bottleneck},
                  DataSize::megabytes(500), Bandwidth::gbps(100));
  }
  const FlowId victim = ps.start_flow({topo.up[0], topo.victim_egress},
                                      DataSize::megabytes(500), Bandwidth::gbps(100));
  // Warm up past slow-start transients, then measure a 10 ms window.
  s.run_for(Duration::millis(20));
  const TimePoint window_start = s.now();
  const std::uint64_t tx0 = ps.tx_bytes_on(topo.bottleneck);
  s.run_for(Duration::millis(10));
  EXPECT_TRUE(s.auditor().ok()) << s.auditor().report();

  EngineResult r;
  r.bottleneck_gbps =
      static_cast<double>(ps.tx_bytes_on(topo.bottleneck) - tx0) * 8.0 / 1e7;
  r.victim_gbps = ps.flow_rate(victim).as_gbps();
  const metrics::TimeSeries q = s.tracer().series(
      metrics::TraceEventKind::kQueueDepth,
      static_cast<std::uint32_t>(topo.bottleneck.value()));
  r.queue_mean_kb = mean_after(q, window_start) / 1e3;
  r.queue_peak_kb = peak_after(q, window_start) / 1e3;
  return r;
}

TEST(CrossEngineIncast, ThroughputAndQueuesAgreeAcrossEngines) {
  IncastTopo topo;
  const EngineResult fluid = run_fluid(topo);
  const EngineResult pkt = run_packet(topo);

  // Print the measured numbers so tolerance drift is diagnosable from logs.
  std::printf("fluid:  bottleneck %.1f Gbps, victim %.1f Gbps, queue mean %.1f KB, peak %.1f KB\n",
              fluid.bottleneck_gbps, fluid.victim_gbps, fluid.queue_mean_kb,
              fluid.queue_peak_kb);
  std::printf("packet: bottleneck %.1f Gbps, victim %.1f Gbps, queue mean %.1f KB, peak %.1f KB\n",
              pkt.bottleneck_gbps, pkt.victim_gbps, pkt.queue_mean_kb, pkt.queue_peak_kb);

  // (1) Both engines pin the incast bottleneck at capacity.
  EXPECT_NEAR(fluid.bottleneck_gbps, 100.0, 5.0);
  EXPECT_NEAR(pkt.bottleneck_gbps, 100.0, 10.0);
  // Relative cross-engine agreement on delivered throughput.
  EXPECT_LT(std::abs(pkt.bottleneck_gbps - fluid.bottleneck_gbps) / fluid.bottleneck_gbps,
            0.15);

  // (2) The victim flow shares only the (uncongested) first hop, so both
  // engines must keep its goodput well above its fair share of the
  // bottleneck (25 Gbps) — congestion control, not HoL blocking, governs.
  EXPECT_GT(fluid.victim_gbps, 50.0);
  EXPECT_GT(pkt.victim_gbps, 50.0);

  // (3) Both hold a standing bottleneck queue inside the ECN marking band
  // [10 KB, 1 MB]. Different control laws -> same equilibrium zone; peak
  // agreement is order-of-magnitude by design.
  EXPECT_GT(fluid.queue_mean_kb, 10.0);
  EXPECT_LT(fluid.queue_peak_kb, 1'000.0);
  EXPECT_GT(pkt.queue_peak_kb, 10.0);
  EXPECT_LT(pkt.queue_peak_kb, 1'000.0);
}

TEST(CrossEngineIncast, TracerSeesFlowLifecyclesInBothEngines) {
  // Both engines must emit matching flow-lifecycle events: one kFlowStart
  // per start_flow, and (for the packet engine's finite flows) kFlowFinish
  // on delivery, with the engine name in the label. FlowSession, on the
  // same fabric, must put the FCT in kFlowFinish and the undelivered bits
  // in kFlowAbort.
  IncastTopo topo;
  {
    sim::Simulator s;
    s.auditor().enable();
    s.tracer().enable();
    FluidSimulator fl{topo.t, s, {}};
    fl.start_flow({topo.up[0], topo.bottleneck}, Bandwidth::gbps(100),
                  DataSize::megabytes(1));
    s.run_for(Duration::millis(5));
    EXPECT_TRUE(s.auditor().ok()) << s.auditor().report();
    const auto starts = s.tracer().events_of(metrics::TraceEventKind::kFlowStart);
    const auto finishes = s.tracer().events_of(metrics::TraceEventKind::kFlowFinish);
    ASSERT_EQ(starts.size(), 1u);
    ASSERT_EQ(finishes.size(), 1u);
    EXPECT_STREQ(starts[0].label, "fluid");
  }
  {
    sim::Simulator s;
    s.auditor().enable();
    s.tracer().enable();
    PacketSimulator ps{topo.t, s};
    ps.start_flow({topo.up[0], topo.bottleneck}, DataSize::megabytes(1),
                  Bandwidth::gbps(100));
    s.run_for(Duration::millis(5));
    ps.audit_quiescent();
    EXPECT_TRUE(s.auditor().ok()) << s.auditor().report();
    const auto starts = s.tracer().events_of(metrics::TraceEventKind::kFlowStart);
    const auto finishes = s.tracer().events_of(metrics::TraceEventKind::kFlowFinish);
    ASSERT_EQ(starts.size(), 1u);
    ASSERT_EQ(finishes.size(), 1u);
    EXPECT_STREQ(starts[0].label, "packet");
  }
  {
    sim::Simulator s;
    s.auditor().enable();
    s.tracer().enable();
    FlowSession fs{topo.t, s};
    // Two flows split the 100G bottleneck 50/50 until the second is
    // aborted at 10 us with 32 Mbit - 0.5 Mbit left; the first then has
    // 7.5 Mbit left at 100G and drains at 85 us. Completion events fire
    // one nanosecond past the ceiling of the drain instant.
    const FlowId kept = fs.start_flow({topo.up[0], topo.bottleneck},
                                      DataSize::bits(8'000'000), Bandwidth::gbps(100));
    const FlowId aborted = fs.start_flow({topo.up[1], topo.bottleneck},
                                         DataSize::bits(32'000'000), Bandwidth::gbps(100));
    s.run_until(TimePoint::at_nanos(10'000));
    ASSERT_TRUE(fs.abort_flow(aborted));
    s.run();
    EXPECT_TRUE(s.auditor().ok()) << s.auditor().report();
    EXPECT_EQ(s.tracer().events_of(metrics::TraceEventKind::kFlowStart).size(), 2u);
    const auto finishes = s.tracer().events_of(metrics::TraceEventKind::kFlowFinish);
    ASSERT_EQ(finishes.size(), 1u);
    EXPECT_EQ(finishes[0].a, kept.value());
    EXPECT_EQ(finishes[0].at, TimePoint::at_nanos(85'001));
    EXPECT_DOUBLE_EQ(finishes[0].value, 85'001e-9);
    const auto aborts = s.tracer().events_of(metrics::TraceEventKind::kFlowAbort);
    ASSERT_EQ(aborts.size(), 1u);
    EXPECT_EQ(aborts[0].a, aborted.value());
    EXPECT_EQ(aborts[0].at, TimePoint::at_nanos(10'000));
    EXPECT_DOUBLE_EQ(aborts[0].value, 31'500'000.0);
  }
}

}  // namespace
}  // namespace hpn::flowsim
