// FlowSession snapshot/restore: rewinding a quiescent session (no active
// flows, no pending events) resets flow-id assignment, delivered
// accounting, and the solver, so a replayed workload produces bit-identical
// rates and FCTs — the serve daemon's `run` verb leans on this for
// repeated time-domain re-runs on one session.
#include <vector>

#include "gtest/gtest.h"
#include "flowsim/session.h"
#include "sim/simulator.h"
#include "topo/topology.h"

namespace hpn::flowsim {
namespace {

// NIC -- ToR -- NIC, 100 Gbps access links: small enough that every FCT is
// hand-checkable, structured enough that restore must rebuild real solver
// state (two links, shared bottleneck).
struct Rig {
  topo::Topology topo;
  sim::Simulator sim;
  LinkId ab{}, bc{};
  FlowSession session;

  Rig() : session(wire(topo, ab, bc), sim) {}

  static topo::Topology& wire(topo::Topology& t, LinkId& ab, LinkId& bc) {
    const NodeId a = t.add_node(topo::NodeKind::kNic, "a");
    const NodeId b = t.add_node(topo::NodeKind::kTor, "b");
    const NodeId c = t.add_node(topo::NodeKind::kNic, "c");
    ab = t.add_duplex_link(a, b, topo::LinkKind::kAccess, Bandwidth::gbps(100),
                           Duration::micros(1))
             .forward;
    bc = t.add_duplex_link(b, c, topo::LinkKind::kAccess, Bandwidth::gbps(100),
                           Duration::micros(1))
             .forward;
    return t;
  }

  [[nodiscard]] std::vector<LinkId> path() const { return {ab, bc}; }
};

TEST(SessionSnapshot, ReplayedWorkloadIsBitIdentical) {
  Rig rig;
  const std::vector<LinkId> path = rig.path();

  const sim::Simulator::Snapshot sim_snap = rig.sim.snapshot();
  const FlowSession::Snapshot sess_snap = rig.session.snapshot();

  const auto run_once = [&]() {
    std::vector<double> fcts;
    std::vector<FlowId> ids;
    for (int i = 0; i < 4; ++i) {
      ids.push_back(rig.session.start_flow(
          path, DataSize::bytes(1 << 20), Bandwidth::gbps(25.0 + i),
          [&fcts, &rig](FlowId) {
            fcts.push_back(rig.sim.now().since_origin().as_seconds());
          }));
    }
    rig.sim.run();
    return std::make_pair(ids, fcts);
  };

  const auto first = run_once();
  rig.session.restore(sess_snap);
  rig.sim.restore(sim_snap);
  const auto second = run_once();

  EXPECT_EQ(first.first, second.first) << "flow ids must rewind";
  ASSERT_EQ(first.second.size(), second.second.size());
  for (std::size_t i = 0; i < first.second.size(); ++i) {
    EXPECT_EQ(first.second[i], second.second[i]) << "fct " << i;
  }
  // Delivered is re-accumulated from the replay (not carried over); it can
  // overshoot the payload by one ns-rounded settle step per flow.
  EXPECT_NEAR(rig.session.delivered_total().as_bytes(),
              4.0 * static_cast<double>(std::int64_t{1} << 20), 4096.0);
}

TEST(SessionSnapshot, RestoreResetsDeliveredAccounting) {
  Rig rig;
  const std::vector<LinkId> path = rig.path();
  const FlowSession::Snapshot snap = rig.session.snapshot();
  const sim::Simulator::Snapshot sim_snap = rig.sim.snapshot();
  rig.session.start_flow(path, DataSize::bytes(4096), Bandwidth::gbps(10.0));
  rig.sim.run();
  EXPECT_NEAR(rig.session.delivered_total().as_bytes(), 4096.0, 64.0);
  rig.session.restore(snap);
  rig.sim.restore(sim_snap);
  EXPECT_EQ(rig.session.delivered_total().as_bytes(), 0);
  EXPECT_EQ(rig.session.active_flows(), 0u);
}

TEST(SessionSnapshot, RequiresQuiescence) {
  Rig rig;
  const std::vector<LinkId> path = rig.path();
  const FlowSession::Snapshot snap = rig.session.snapshot();
  rig.session.start_flow(path, DataSize::bytes(1 << 16), Bandwidth::gbps(10.0));
  // Active flow + pending events: both snapshot and restore must refuse.
  EXPECT_THROW((void)rig.session.snapshot(), CheckError);
  EXPECT_THROW(rig.session.restore(snap), CheckError);
  rig.sim.run();  // drain to completion; legal again
  (void)rig.session.snapshot();
  rig.session.restore(snap);
}

TEST(SessionSnapshot, RestoreRebuildsSolverAfterAbort) {
  // Abort path: a flow stalled forever (down link) is aborted, the session
  // drains, restore rewinds — and the next run must see a fresh solver.
  Rig rig;
  const std::vector<LinkId> path = rig.path();
  const FlowSession::Snapshot sess_snap = rig.session.snapshot();
  const sim::Simulator::Snapshot sim_snap = rig.sim.snapshot();

  topo::Topology& topo = rig.topo;
  topo.set_duplex_up(path[0], false);
  rig.session.refresh();
  const FlowId stalled = rig.session.start_flow(path, DataSize::bytes(1 << 20),
                                                Bandwidth::gbps(10.0));
  rig.sim.run();
  EXPECT_EQ(rig.session.active_flows(), 1u) << "flow must stall, not complete";
  EXPECT_TRUE(rig.session.abort_flow(stalled));
  rig.sim.run();

  topo.set_duplex_up(path[0], true);
  rig.session.restore(sess_snap);
  rig.sim.restore(sim_snap);

  std::vector<double> fcts;
  rig.session.start_flow(path, DataSize::bytes(1 << 20), Bandwidth::gbps(10.0),
                         [&](FlowId) {
                           fcts.push_back(rig.sim.now().since_origin().as_seconds());
                         });
  rig.sim.run();
  ASSERT_EQ(fcts.size(), 1u);
  EXPECT_GT(fcts[0], 0.0);
}

}  // namespace
}  // namespace hpn::flowsim
