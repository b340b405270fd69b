// Deterministic stall -> reroute -> resume drill: a scripted link flap
// (through fault::FailureInjector, so the whole control-plane path runs)
// takes down the access link under an in-flight FlowSession transfer. The
// flow must stall at rate zero, reroute onto the surviving port, resume,
// and complete — and the tracer must record exactly that event sequence.
#include <gtest/gtest.h>

#include <vector>

#include "fault/failure_injector.h"
#include "flowsim/session.h"
#include "metrics/trace.h"
#include "tests/support/fault_plan.h"
#include "topo/builders.h"

namespace hpn::flowsim {
namespace {

struct Rig {
  topo::Cluster c = topo::build_hpn(topo::HpnConfig::tiny());  // dual-ToR
  sim::Simulator s;
  routing::Router r{c.topo};
  ctrl::FabricController fabric{c, s, r};
  FlowSession session{c.topo, s};

  Rig() {
    // Re-solve rates whenever the fabric mutates (as TrainingJob does).
    fabric.subscribe([this] { session.refresh(); });
  }
};

TEST(SessionFailover, ScriptedFlapStallsReroutesAndResumes) {
  Rig rig;
  rig.s.tracer().enable();

  // A host0 -> host1 transfer on rail 0; the router picks one of the two
  // NIC ports, and that is the port we flap.
  const topo::NicAttachment& src = rig.c.hosts[0].nics[0];
  const NodeId dst = rig.c.hosts[1].nics[0].nic;
  const routing::FiveTuple ft{
      .src_ip = src.nic.value(), .dst_ip = dst.value(), .src_port = 4242};
  const routing::Path path = rig.r.trace(src.nic, dst, ft);
  ASSERT_TRUE(path.valid());
  const LinkId first_hop = path.links.front();
  const int port = first_hop == src.access[0] ? 0 : 1;
  ASSERT_EQ(first_hop, src.access[static_cast<std::size_t>(port)]);

  // 200 Gbit capped at 100 Gbps: 2 s of transfer if nothing goes wrong.
  TimePoint done = TimePoint::far_future();
  const FlowId flow =
      rig.session.start_flow(path.links, DataSize::bits(200'000'000'000),
                             Bandwidth::gbps(100), [&](FlowId) { done = rig.s.now(); });

  // Scripted flap through the injector at t=1s, auto-repair 2s later.
  fault::testsupport::schedule_plan(
      rig.s, rig.fabric,
      {{fault::InjectionPlanEntry::Kind::kLinkFlap,
        TimePoint::at_nanos(Duration::seconds(1).as_nanos()), /*host=*/0,
        /*rail=*/0, port, NodeId::invalid(), Duration::seconds(2)}});

  // Mid-outage: the flow is stalled at rate zero with half its bits left.
  rig.s.run_until(TimePoint::at_nanos(Duration::millis(1'500).as_nanos()));
  ASSERT_TRUE(rig.session.rate_of(flow).has_value());
  EXPECT_DOUBLE_EQ(rig.session.rate_of(flow)->as_gbps(), 0.0);
  EXPECT_NEAR(static_cast<double>(rig.session.remaining_of(flow)->as_bits()), 1e11, 1e9);
  ASSERT_EQ(rig.s.tracer().events_of(metrics::TraceEventKind::kFlowStall).size(), 1u);

  // §4 port failover: move the flow onto a path avoiding the dead port.
  const routing::Path alt = rig.r.trace(src.nic, dst, ft);
  ASSERT_TRUE(alt.valid());
  ASSERT_NE(alt.links.front(), first_hop) << "router must avoid the down link";
  ASSERT_TRUE(rig.session.reroute_flow(flow, alt.links));

  rig.s.run();
  // 1 s of transfer + 0.5 s stalled + 1 s for the remaining 100 Gbit.
  ASSERT_NE(done, TimePoint::far_future());
  EXPECT_NEAR(done.since_origin().as_seconds(), 2.5, 1e-3);
  EXPECT_EQ(rig.session.active_flows(), 0u);

  // The tracer saw the full lifecycle, in order.
  std::vector<metrics::TraceEventKind> lifecycle;
  for (const auto& ev : rig.s.tracer().events()) {
    switch (ev.kind) {
      case metrics::TraceEventKind::kFlowStart:
      case metrics::TraceEventKind::kLinkDown:
      case metrics::TraceEventKind::kFlowStall:
      case metrics::TraceEventKind::kFlowReroute:
      case metrics::TraceEventKind::kFlowResume:
      case metrics::TraceEventKind::kFlowFinish:
      case metrics::TraceEventKind::kLinkUp:
        lifecycle.push_back(ev.kind);
        break;
      default:
        break;
    }
  }
  const std::vector<metrics::TraceEventKind> expected{
      metrics::TraceEventKind::kFlowStart,   metrics::TraceEventKind::kLinkDown,
      metrics::TraceEventKind::kFlowStall,   metrics::TraceEventKind::kFlowReroute,
      metrics::TraceEventKind::kFlowResume,  metrics::TraceEventKind::kFlowFinish,
      metrics::TraceEventKind::kLinkUp};
  EXPECT_EQ(lifecycle, expected);

  // Repair (t=3s) resumed nothing — the flow had already moved and finished.
  const auto resumes = rig.s.tracer().events_of(metrics::TraceEventKind::kFlowResume);
  ASSERT_EQ(resumes.size(), 1u);
  EXPECT_EQ(resumes[0].at, TimePoint::at_nanos(Duration::millis(1'500).as_nanos()));
}

TEST(SessionFailover, RepairAloneResumesStalledFlow) {
  // No reroute this time: the flow waits out the outage on its original
  // path and resumes when the injector's auto-repair brings the link back.
  Rig rig;
  rig.s.tracer().enable();

  const topo::NicAttachment& src = rig.c.hosts[0].nics[0];
  const NodeId dst = rig.c.hosts[1].nics[0].nic;
  const routing::FiveTuple ft{
      .src_ip = src.nic.value(), .dst_ip = dst.value(), .src_port = 4242};
  const routing::Path path = rig.r.trace(src.nic, dst, ft);
  ASSERT_TRUE(path.valid());
  const int port = path.links.front() == src.access[0] ? 0 : 1;

  TimePoint done = TimePoint::far_future();
  rig.session.start_flow(path.links, DataSize::bits(200'000'000'000),
                         Bandwidth::gbps(100), [&](FlowId) { done = rig.s.now(); });

  fault::testsupport::schedule_plan(
      rig.s, rig.fabric,
      {{fault::InjectionPlanEntry::Kind::kLinkFlap,
        TimePoint::at_nanos(Duration::seconds(1).as_nanos()), /*host=*/0,
        /*rail=*/0, port, NodeId::invalid(), Duration::seconds(2)}});

  rig.s.run();
  // 1 s transferred + 2 s down + 1 s to finish the rest.
  ASSERT_NE(done, TimePoint::far_future());
  EXPECT_NEAR(done.since_origin().as_seconds(), 4.0, 1e-3);
  EXPECT_EQ(rig.s.tracer().events_of(metrics::TraceEventKind::kFlowStall).size(), 1u);
  const auto resumes = rig.s.tracer().events_of(metrics::TraceEventKind::kFlowResume);
  ASSERT_EQ(resumes.size(), 1u);
  EXPECT_EQ(resumes[0].at, TimePoint::at_nanos(Duration::seconds(3).as_nanos()));
  EXPECT_EQ(rig.s.tracer().events_of(metrics::TraceEventKind::kFlowReroute).size(), 0u);
}

}  // namespace
}  // namespace hpn::flowsim
