// The §2.3 behaviour tests of the resilient-training loop, driven through
// CheckpointLoop's blocking run_for() pump.
#include "train/checkpoint_loop.h"

#include <gtest/gtest.h>

#include <optional>

#include "ctrl/fabric_controller.h"
#include "topo/builders.h"
#include "topo/frontend.h"

namespace hpn::train {
namespace {

using topo::Cluster;
using topo::HpnConfig;

struct Rig {
  Cluster c;
  sim::Simulator s;
  flowsim::FlowSession fs;
  routing::Router r;
  ccl::ConnectionManager cm;

  explicit Rig(bool dual_tor = true)
      : c{[&] {
          auto cfg = HpnConfig::tiny();
          cfg.segments_per_pod = 1;
          cfg.hosts_per_segment = 8;
          cfg.dual_tor = dual_tor;
          return topo::build_hpn(cfg);
        }()},
        fs{c.topo, s},
        r{c.topo},
        cm{c, r} {}

  /// Subscribe the session and the loop's live job to fabric changes, as
  /// the multi-tenant cluster does.
  void follow(ctrl::FabricController& fabric, CheckpointLoop& loop) {
    fabric.subscribe([this, &loop] {
      fs.refresh();
      loop.on_fabric_change();
    });
  }
};

workload::ModelPreset quick_model() {
  auto m = workload::llama_7b();
  m.compute_per_iteration = Duration::millis(100);
  return m;
}

fault::CheckpointPolicy quick_policy() {
  fault::CheckpointPolicy p;
  p.interval = Duration::seconds(2.0);
  p.write_time = Duration::millis(200);
  p.restart_time = Duration::seconds(1.0);
  p.per_gpu = DataSize::gigabytes(1.0);
  return p;
}

TEST(ResilientTrainer, CleanRunCheckpointsOnSchedule) {
  Rig rig;
  const auto plan = workload::ParallelismPlanner{rig.c}.plan(8, 1, 8);
  CheckpointLoop trainer{rig.c, rig.s,  rig.fs, rig.cm, rig.r,
                         plan,  quick_model(), quick_policy()};
  const auto report = trainer.run_for(Duration::seconds(10.0));
  EXPECT_EQ(report.crashes, 0);
  EXPECT_GE(report.checkpoints, 3);  // every ~2s over 10s
  EXPECT_GT(report.iterations_kept, 40);
  EXPECT_GT(report.goodput(), 0.7);
  EXPECT_LT(report.goodput(), 1.0);  // checkpoints cost something
  EXPECT_EQ(report.iterations_lost, 0);
}

TEST(ResilientTrainer, ShorterIntervalLowersGoodput) {
  auto run_with_interval = [](Duration interval) {
    Rig rig;
    const auto plan = workload::ParallelismPlanner{rig.c}.plan(8, 1, 8);
    auto policy = quick_policy();
    policy.interval = interval;
    CheckpointLoop trainer{rig.c, rig.s,  rig.fs, rig.cm, rig.r,
                           plan,  quick_model(), policy};
    return trainer.run_for(Duration::seconds(10.0)).goodput();
  };
  EXPECT_GT(run_with_interval(Duration::seconds(4.0)),
            run_with_interval(Duration::seconds(1.0)));
}

TEST(ResilientTrainer, CrashRollsBackAndRecovers) {
  Rig rig{/*dual_tor=*/false};  // single-ToR: a failure can crash the job
  const auto plan = workload::ParallelismPlanner{rig.c}.plan(8, 1, 8);
  ctrl::FabricController fabric{rig.c, rig.s, rig.r};
  TrainOptions opts;
  opts.comm_timeout = Duration::seconds(1.0);

  // Fail at 4s; repair at 7s — past the timeout, so the job crashes,
  // restarts from its last checkpoint and finishes the budget.
  rig.s.schedule_after(Duration::seconds(4.0), [&] { fabric.fail_access(plan.hosts[1], 0, 0); });
  rig.s.schedule_after(Duration::seconds(7.0), [&] { fabric.repair_access(plan.hosts[1], 0, 0); });

  CheckpointLoop trainer{rig.c, rig.s,  rig.fs, rig.cm, rig.r,
                         plan,  quick_model(), quick_policy(), {}, opts};
  rig.follow(fabric, trainer);
  const auto report = trainer.run_for(Duration::seconds(20.0));
  EXPECT_GE(report.crashes, 1);
  EXPECT_GT(report.iterations_lost, 0);
  EXPECT_GT(report.rolled_back, Duration::zero());
  EXPECT_GT(report.restart_downtime, Duration::zero());
  // Despite the crash, the run resumes and retains most progress.
  EXPECT_GT(report.iterations_kept, 30);
  EXPECT_GT(report.goodput(), 0.3);
  EXPECT_LT(report.goodput(), 0.95);
}

TEST(ResilientTrainer, DualTorAvoidsTheCrashEntirely) {
  Rig rig{/*dual_tor=*/true};
  const auto plan = workload::ParallelismPlanner{rig.c}.plan(8, 1, 8);
  ctrl::FabricController fabric{rig.c, rig.s, rig.r};
  TrainOptions opts;
  opts.comm_timeout = Duration::seconds(1.0);

  rig.s.schedule_after(Duration::seconds(4.0), [&] { fabric.fail_access(plan.hosts[1], 0, 0); });
  rig.s.schedule_after(Duration::seconds(7.0), [&] { fabric.repair_access(plan.hosts[1], 0, 0); });

  CheckpointLoop trainer{rig.c, rig.s,  rig.fs, rig.cm, rig.r,
                         plan,  quick_model(), quick_policy(), {}, opts};
  // Keep in-flight traffic steered: the controller notifies, and the loop
  // forwards to whichever job is live.
  rig.follow(fabric, trainer);
  const auto report = trainer.run_for(Duration::seconds(20.0));
  EXPECT_EQ(report.crashes, 0);
  EXPECT_EQ(report.iterations_lost, 0);
}

TEST(ResilientTrainer, CheckpointsThroughRealStorage) {
  Rig rig;
  const auto storage = topo::attach_frontend(rig.c);
  const auto plan = workload::ParallelismPlanner{rig.c}.plan(8, 1, 8);
  auto policy = quick_policy();
  CheckpointLoop trainer{rig.c, rig.s,  rig.fs,       rig.cm, rig.r, plan,
                         quick_model(), policy, storage};
  const auto report = trainer.run_for(Duration::seconds(8.0));
  EXPECT_GE(report.checkpoints, 2);
  // Writing 8GB/host through the frontend takes real simulated time.
  EXPECT_GT(report.checkpoint_overhead, Duration::millis(100));
}

// The event-driven run(): what the multi-tenant cluster drives.

TEST(CheckpointLoop, EveryIterationsCheckpointsOnCountButNotAfterTheLast) {
  Rig rig;
  const auto plan = workload::ParallelismPlanner{rig.c}.plan(8, 1, 8);
  auto policy = quick_policy();
  policy.interval = Duration::hours(1.0);  // count only
  policy.every_iterations = 3;
  CheckpointLoop loop{rig.c, rig.s, rig.fs, rig.cm, rig.r, plan, quick_model(), policy};
  bool done = false;
  loop.run({.iterations = 9}, [&] { done = true; },
           [](const fault::CrashCost&) { FAIL() << "healthy run crashed"; });
  while (!done) ASSERT_TRUE(rig.s.step());
  EXPECT_EQ(loop.report().iterations_kept, 9);
  EXPECT_EQ(loop.report().checkpoints, 2);  // after 3 and 6; 9 is the target
  EXPECT_EQ(loop.report().checkpoint_overhead, policy.write_time * 2.0);
  EXPECT_EQ(loop.report().wall_time, rig.s.now() - TimePoint::origin());
}

TEST(CheckpointLoop, CrashHandsTheOwnerTheCheckpointModelCostAndIdles) {
  Rig rig{/*dual_tor=*/false};
  const auto plan = workload::ParallelismPlanner{rig.c}.plan(8, 1, 8);
  ctrl::FabricController fabric{rig.c, rig.s, rig.r};
  TrainOptions opts;
  opts.comm_timeout = Duration::seconds(1.0);
  rig.s.schedule_after(Duration::seconds(3.0),
                       [&] { fabric.fail_access(plan.hosts[1], 0, 0); });
  auto policy = quick_policy();
  policy.every_iterations = 4;
  CheckpointLoop loop{rig.c, rig.s, rig.fs, rig.cm, rig.r, plan, quick_model(), policy, {}, opts};
  rig.follow(fabric, loop);
  std::optional<fault::CrashCost> cost;
  loop.run({.iterations = 1000}, [] { FAIL() << "a permanent failure must crash"; },
           [&](const fault::CrashCost& c) { cost = c; });
  while (!cost && rig.s.step()) {
  }
  ASSERT_TRUE(cost.has_value());
  const ResilientReport& r = loop.report();
  EXPECT_EQ(r.crashes, 1);
  EXPECT_LT(r.iterations_lost, policy.every_iterations);
  // At least the stalled iteration: its compute plus the collective timeout.
  EXPECT_GE(r.rolled_back, quick_model().compute_per_iteration + opts.comm_timeout);
  EXPECT_EQ(r.iterations_kept % policy.every_iterations, 0);  // only checkpointed work
  EXPECT_EQ(cost->rolled_back, r.rolled_back);
  EXPECT_EQ(cost->restart, policy.restart_time);
  EXPECT_EQ(cost->dollars, fault::CheckpointModel{policy}
                               .crash_cost(r.rolled_back, plan.world_size())
                               .dollars);
  // Idle after the crash: the loop schedules nothing more of its own.
  const int kept = r.iterations_kept;
  rig.s.run_for(Duration::seconds(10.0));
  EXPECT_EQ(loop.report().iterations_kept, kept);
  EXPECT_EQ(loop.report().crashes, 1);
}

}  // namespace
}  // namespace hpn::train
