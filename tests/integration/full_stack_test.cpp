// Full-stack integration: topology + routing + control plane + collectives
// + training + storage + failures, together in one simulated cluster, the
// way the example applications and benches compose them.
#include <gtest/gtest.h>

#include <numeric>

#include "ctrl/fabric_controller.h"
#include "fault/failure_injector.h"
#include "tests/support/fault_plan.h"
#include "topo/builders.h"
#include "topo/frontend.h"
#include "topo/validate.h"
#include "train/training_job.h"
#include "workload/storage.h"

namespace hpn {
namespace {

struct Stack {
  topo::Cluster cluster;
  std::vector<topo::StorageHost> storage;
  sim::Simulator sim;
  flowsim::FlowSession session;
  routing::Router router;
  ccl::ConnectionManager conns;
  ctrl::FabricController fabric;

  Stack()
      : cluster{[] {
          auto cfg = topo::HpnConfig::tiny();
          cfg.segments_per_pod = 2;
          cfg.hosts_per_segment = 8;
          return topo::build_hpn(cfg);
        }()},
        storage{topo::attach_frontend(cluster)},
        session{cluster.topo, sim},
        router{cluster.topo},
        conns{cluster, router},
        fabric{cluster, sim, router} {}
};

TEST(FullStack, TrainCheckpointFailRecover) {
  Stack st;
  topo::validate_or_throw(st.cluster);

  // Train across both segments.
  auto model = workload::llama_7b();
  model.compute_per_iteration = Duration::millis(100);
  const auto plan = workload::ParallelismPlanner{st.cluster}.plan(8, 2, 8);
  train::TrainingJob job{st.cluster, st.sim, st.session, st.conns, plan, model};
  st.fabric.subscribe([&job] { job.on_fabric_change(); });
  ASSERT_EQ(job.run_iterations(3), 3);
  const double baseline = job.steady_samples_per_sec(2);

  // Checkpoint to frontend storage *while* training continues.
  workload::StorageTraffic storage_traffic{st.cluster, st.session, st.router};
  bool ckpt_done = false;
  storage_traffic.checkpoint_write(plan.hosts, st.storage, DataSize::gigabytes(60),
                                   [&] { ckpt_done = true; });
  ASSERT_EQ(job.run_iterations(3), 3);
  const double during_ckpt = job.steady_samples_per_sec(2);
  EXPECT_NEAR(during_ckpt, baseline, baseline * 0.02)
      << "frontend checkpointing must not perturb backend training";

  // Inject an access failure; dual-ToR must keep the job alive (the fabric
  // controller notifies the job through the subscription).
  st.fabric.fail_access(plan.hosts[2], 1, 0);
  ASSERT_EQ(job.run_iterations(3), 3);
  EXPECT_EQ(job.state(), train::JobState::kRunning);

  // Repair and verify full recovery — connections must migrate back to
  // their planned ports, restoring the original throughput.
  st.fabric.repair_access(plan.hosts[2], 1, 0);
  st.sim.run_for(st.fabric.timings().lacp_rejoin + Duration::millis(1));
  ASSERT_EQ(job.run_iterations(3), 3);
  EXPECT_NEAR(job.steady_samples_per_sec(2), baseline, baseline * 0.05);

  // The checkpoint eventually lands too.
  while (!ckpt_done && st.sim.step()) {
  }
  EXPECT_TRUE(ckpt_done);
}

TEST(FullStack, RandomFailureStormNeverCrashesDualTorJob) {
  // A burst of random failures + repairs from the Fig 5 injector; the
  // dual-ToR job must survive all of it (§9.3's eight clean months).
  Stack st;
  fault::FailureInjector injector{st.cluster, 7};
  // Compress a month of failures into the next few simulated minutes.
  auto plan = injector.draw_plan(Duration::hours(24 * 300), Duration::seconds(30));
  for (auto& e : plan) {
    e.at = TimePoint::origin() +
           Duration::seconds(1.0 + static_cast<double>(e.at.as_nanos() % 100));
  }
  EXPECT_GT(fault::testsupport::schedule_plan(st.sim, st.fabric, plan), 3);

  auto model = workload::llama_7b();
  model.compute_per_iteration = Duration::millis(200);
  const auto jplan = workload::ParallelismPlanner{st.cluster}.plan(8, 1, 16);
  train::TrainingJob job{st.cluster, st.sim, st.session, st.conns, jplan, model};
  // Every fabric mutation re-steers in-flight traffic, even mid-iteration.
  st.fabric.subscribe([&job] { job.on_fabric_change(); });
  const int completed = job.run_iterations(40);
  EXPECT_EQ(job.state(), train::JobState::kRunning);
  EXPECT_EQ(completed, 40);
}

TEST(FullStack, ClusterHelperLookups) {
  Stack st;
  const auto seg0_tors = st.cluster.tors_of_segment(0, 0);
  EXPECT_EQ(seg0_tors.size(), 16u);  // 8 rails x 2 planes
  for (const NodeId tor : seg0_tors) {
    EXPECT_EQ(st.cluster.topo.node(tor).loc.segment, 0);
  }
  const auto plane0 = st.cluster.aggs_of_plane(0, 0);
  const auto plane1 = st.cluster.aggs_of_plane(0, 1);
  EXPECT_EQ(plane0.size(), plane1.size());
  EXPECT_FALSE(plane0.empty());
}

}  // namespace
}  // namespace hpn
