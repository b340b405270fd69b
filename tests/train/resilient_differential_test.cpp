// Differential suite: the event-driven CheckpointLoop, driven through its
// blocking run_for() pump, against the original blocking ResilientTrainer
// kept verbatim in tests/support/reference_resilient_trainer.h. On identical
// rigs, both subscribed to fabric changes, every ResilientReport field must
// match exactly.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "tests/support/reference_resilient_trainer.h"
#include "topo/builders.h"
#include "train/checkpoint_loop.h"

namespace hpn::train {
namespace {

enum class Fault {
  kNone,
  kFlap,  ///< One access link down for 0.5 s, back before the 1 s timeout.
  kFail,  ///< One access link down from 4 s to 7 s, past the timeout.
};

struct Drill {
  const char* name;
  bool dual_tor;
  Fault fault;
  bool storage;  ///< Checkpoints go through the frontend storage cluster.
};

// gtest lists each case with its parameter; print the name, not the bytes.
void PrintTo(const Drill& drill, std::ostream* os) { *os << drill.name; }

template <class Loop>
ResilientReport run_drill(const Drill& drill) {
  auto cfg = topo::HpnConfig::tiny();
  cfg.segments_per_pod = 1;
  cfg.hosts_per_segment = 8;
  cfg.dual_tor = drill.dual_tor;
  topo::Cluster cluster = topo::build_hpn(cfg);
  std::vector<topo::StorageHost> storage;
  if (drill.storage) storage = topo::attach_frontend(cluster);
  sim::Simulator sim;
  flowsim::FlowSession session{cluster.topo, sim};
  routing::Router router{cluster.topo};
  ccl::ConnectionManager connections{cluster, router};
  ctrl::FabricController fabric{cluster, sim, router};

  auto model = workload::llama_7b();
  model.compute_per_iteration = Duration::millis(100);
  fault::CheckpointPolicy policy;
  policy.interval = Duration::seconds(2.0);
  policy.write_time = Duration::millis(200);
  policy.restart_time = Duration::seconds(1.0);
  policy.per_gpu = DataSize::gigabytes(1.0);
  TrainOptions opts;
  opts.comm_timeout = Duration::seconds(1.0);

  const auto plan = workload::ParallelismPlanner{cluster}.plan(8, 1, 8);
  const int host = plan.hosts[1];
  switch (drill.fault) {
    case Fault::kNone:
      break;
    case Fault::kFlap:
      sim.schedule_after(Duration::seconds(4.0), [&] {
        fabric.flap_access(host, 0, 0, Duration::millis(500));
      });
      break;
    case Fault::kFail:
      sim.schedule_after(Duration::seconds(4.0), [&] { fabric.fail_access(host, 0, 0); });
      sim.schedule_after(Duration::seconds(7.0), [&] { fabric.repair_access(host, 0, 0); });
      break;
  }
  Loop loop{cluster, sim, session, connections, router, plan, model, policy, storage, opts};
  fabric.subscribe([&] {
    session.refresh();
    loop.on_fabric_change();
  });
  return loop.run_for(Duration::seconds(20.0));
}

class ResilientDifferential : public ::testing::TestWithParam<Drill> {};

TEST_P(ResilientDifferential, MatchesBlockingReference) {
  const Drill& drill = GetParam();
  const ResilientReport want = run_drill<reference::ResilientTrainer>(drill);
  const ResilientReport got = run_drill<CheckpointLoop>(drill);
  EXPECT_EQ(got.wall_time, want.wall_time);
  EXPECT_EQ(got.useful_progress, want.useful_progress);
  EXPECT_EQ(got.rolled_back, want.rolled_back);
  EXPECT_EQ(got.checkpoint_overhead, want.checkpoint_overhead);
  EXPECT_EQ(got.restart_downtime, want.restart_downtime);
  EXPECT_EQ(got.iterations_kept, want.iterations_kept);
  EXPECT_EQ(got.iterations_lost, want.iterations_lost);
  EXPECT_EQ(got.crashes, want.crashes);
  EXPECT_EQ(got.checkpoints, want.checkpoints);
}

constexpr Drill kHealthy{"healthy", true, Fault::kNone, false};
constexpr Drill kFlap{"single_tor_flap_repaired", false, Fault::kFlap, false};
constexpr Drill kCrash{"single_tor_crash", false, Fault::kFail, false};
constexpr Drill kDualTor{"dual_tor_failure", true, Fault::kFail, false};
constexpr Drill kStorage{"frontend_storage_checkpoint", true, Fault::kNone, true};

INSTANTIATE_TEST_SUITE_P(Drills, ResilientDifferential,
                         ::testing::Values(kHealthy, kFlap, kCrash, kDualTor, kStorage),
                         [](const ::testing::TestParamInfo<Drill>& param_info) {
                           return std::string{param_info.param.name};
                         });

TEST(ResilientDifferentialDrills, ExerciseWhatTheyClaim) {
  // Guards the drill table: only the single-ToR failure crashes, and every
  // drill checkpoints; storage writes take longer than the nominal 200 ms.
  const ResilientReport healthy = run_drill<CheckpointLoop>(kHealthy);
  EXPECT_EQ(healthy.crashes, 0);
  EXPECT_GE(healthy.checkpoints, 3);
  EXPECT_EQ(run_drill<CheckpointLoop>(kFlap).crashes, 0);
  const ResilientReport crash = run_drill<CheckpointLoop>(kCrash);
  EXPECT_GE(crash.crashes, 1);
  EXPECT_GT(crash.iterations_lost, 0);
  EXPECT_EQ(run_drill<CheckpointLoop>(kDualTor).crashes, 0);
  const ResilientReport stored = run_drill<CheckpointLoop>(kStorage);
  EXPECT_GE(stored.checkpoints, 2);
  EXPECT_GT(stored.checkpoint_overhead,
            Duration::millis(200) * static_cast<double>(stored.checkpoints));
}

}  // namespace
}  // namespace hpn::train
