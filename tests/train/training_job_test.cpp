#include "train/training_job.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "common/check.h"
#include "tests/support/moe_preset.h"
#include "topo/builders.h"

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

  explicit Rig(HpnConfig cfg = HpnConfig::tiny())
      : c{topo::build_hpn(cfg)}, fs{c.topo, s}, r{c.topo}, cm{c, r} {}
};

workload::ModelPreset fast_model() {
  // Shrunk model so tests run in milliseconds of simulated time.
  workload::ModelPreset m = workload::llama_7b();
  m.compute_per_iteration = Duration::millis(50);
  m.traffic.dp_all_reduce = DataSize::megabytes(32);
  m.traffic.tp_all_reduce = DataSize::megabytes(16);
  return m;
}

TEST(TrainingJob, IterationsCompleteAndRecordThroughput) {
  Rig rig;
  const auto plan = workload::ParallelismPlanner{rig.c}.plan(8, 2, 2);
  TrainingJob job{rig.c, rig.s, rig.fs, rig.cm, plan, fast_model()};
  const int done = job.run_iterations(3);
  EXPECT_EQ(done, 3);
  EXPECT_EQ(job.state(), JobState::kRunning);
  EXPECT_EQ(job.throughput().size(), 3u);
  EXPECT_GT(job.steady_samples_per_sec(), 0.0);
}

TEST(TrainingJob, IterationTimeAtLeastCompute) {
  Rig rig;
  const auto plan = workload::ParallelismPlanner{rig.c}.plan(8, 1, 2);
  const auto model = fast_model();
  TrainingJob job{rig.c, rig.s, rig.fs, rig.cm, plan, model};
  job.run_iterations(1);
  const double samples_per_s = job.throughput().points()[0].value;
  const double iter_s = plan.world_size() / samples_per_s;
  EXPECT_GE(iter_s, model.compute_per_iteration.as_seconds());
}

TEST(TrainingJob, MoreDpTrafficIsSlower) {
  Rig a;
  const auto plan_a = workload::ParallelismPlanner{a.c}.plan(8, 1, 4);
  auto light = fast_model();
  TrainingJob job_a{a.c, a.s, a.fs, a.cm, plan_a, light};
  job_a.run_iterations(2);

  Rig b;
  const auto plan_b = workload::ParallelismPlanner{b.c}.plan(8, 1, 4);
  auto heavy = fast_model();
  heavy.traffic.dp_all_reduce = DataSize::gigabytes(4.0);
  TrainingJob job_b{b.c, b.s, b.fs, b.cm, plan_b, heavy};
  job_b.run_iterations(2);

  EXPECT_GT(job_a.steady_samples_per_sec(), job_b.steady_samples_per_sec());
}

TEST(TrainingJob, DualTorSurvivesSingleLinkFailure) {
  Rig rig;
  const auto plan = workload::ParallelismPlanner{rig.c}.plan(8, 2, 2);
  ctrl::FabricController fabric{rig.c, rig.s, rig.r, {}};
  TrainingJob job{rig.c, rig.s, rig.fs, rig.cm, plan, fast_model()};
  job.run_iterations(1);
  const double before = job.steady_samples_per_sec(1);

  fabric.fail_access(plan.hosts[0], 0, 0);
  job.on_fabric_change();
  const int done = job.run_iterations(2);
  EXPECT_EQ(done, 2);
  EXPECT_EQ(job.state(), JobState::kRunning);
  const double after = job.steady_samples_per_sec(1);
  // Degraded (one of 16 ports gone) but nowhere near halted.
  EXPECT_GT(after, before * 0.6);
}

TEST(TrainingJob, SingleTorLinkFailureCrashesAfterTimeout) {
  auto cfg = HpnConfig::tiny();
  cfg.dual_tor = false;
  Rig rig{cfg};
  const auto plan = workload::ParallelismPlanner{rig.c}.plan(8, 2, 2);
  ctrl::FabricController fabric{rig.c, rig.s, rig.r, {}};
  TrainOptions opts;
  opts.comm_timeout = Duration::seconds(2.0);  // short NCCL timeout for test
  TrainingJob job{rig.c, rig.s, rig.fs, rig.cm, plan, fast_model(), opts};
  job.run_iterations(1);
  ASSERT_EQ(job.state(), JobState::kRunning);

  fabric.fail_access(plan.hosts[0], 0, 0);  // the rail's only port
  job.on_fabric_change();
  job.run_iterations(2);
  EXPECT_EQ(job.state(), JobState::kCrashed);
}

TEST(TrainingJob, SingleTorRecoversIfRepairedBeforeTimeout) {
  auto cfg = HpnConfig::tiny();
  cfg.dual_tor = false;
  Rig rig{cfg};
  const auto plan = workload::ParallelismPlanner{rig.c}.plan(8, 2, 2);
  ctrl::FabricController fabric{rig.c, rig.s, rig.r, {}};
  TrainOptions opts;
  opts.comm_timeout = Duration::seconds(30.0);
  TrainingJob job{rig.c, rig.s, rig.fs, rig.cm, plan, fast_model(), opts};
  job.run_iterations(1);

  // Fail, then auto-repair well inside the timeout.
  fabric.flap_access(plan.hosts[0], 0, 0, Duration::seconds(1.0));
  job.on_fabric_change();
  const int done = job.run_iterations(2);
  EXPECT_EQ(done, 2);
  EXPECT_EQ(job.state(), JobState::kRunning);
}

// --- Crash instant --------------------------------------------------------
//
// The watchdog crashes the job exactly at iteration start + compute +
// comm_timeout. A long unreachable-retry interval (fig18b's single-ToR
// value) leaves no event near the deadline, so a detector that polls the
// clock after each event would crash late.

struct CrashRig {
  Rig rig{[] {
    auto cfg = HpnConfig::tiny();
    cfg.dual_tor = false;
    return cfg;
  }()};
  ctrl::FabricController fabric{rig.c, rig.s, rig.r, {}};
  workload::PlacementPlan plan = workload::ParallelismPlanner{rig.c}.plan(8, 2, 2);
  workload::ModelPreset model = fast_model();
  TrainOptions opts = [] {
    TrainOptions o;
    o.comm_timeout = Duration::seconds(2.0);
    o.ccl.unreachable_retry = Duration::seconds(3.2);
    return o;
  }();

  CrashRig() { rig.s.tracer().enable(); }

  /// The rail's only port of the first host goes down for good.
  void isolate(TrainingJob& job) {
    fabric.fail_access(plan.hosts[0], 0, 0);
    job.on_fabric_change();
  }
  [[nodiscard]] TimePoint expected_crash() const {
    const auto begins = rig.s.tracer().events_of(metrics::TraceEventKind::kIterationBegin);
    return begins.back().at + model.compute_per_iteration + opts.comm_timeout;
  }
};

TEST(TrainingJobCrash, CrashFiresAtTimeoutThroughRunIterations) {
  CrashRig cr;
  TrainingJob job{cr.rig.c, cr.rig.s, cr.rig.fs, cr.rig.cm, cr.plan, cr.model, cr.opts};
  ASSERT_EQ(job.run_iterations(1), 1);
  cr.isolate(job);
  EXPECT_EQ(job.run_iterations(2), 0);
  ASSERT_EQ(job.state(), JobState::kCrashed);
  EXPECT_EQ(cr.rig.s.now(), cr.expected_crash());
}

TEST(TrainingJobCrash, CrashFiresAtTimeoutThroughRun) {
  CrashRig cr;
  TrainingJob job{cr.rig.c, cr.rig.s, cr.rig.fs, cr.rig.cm, cr.plan, cr.model, cr.opts};
  ASSERT_EQ(job.run_iterations(1), 1);
  cr.isolate(job);
  std::optional<TimePoint> crashed_at;
  job.run(2, [&](bool crashed) {
    EXPECT_TRUE(crashed);
    crashed_at = cr.rig.s.now();
  });
  while (!crashed_at.has_value()) ASSERT_TRUE(cr.rig.s.step());
  EXPECT_EQ(*crashed_at, cr.expected_crash());
  EXPECT_EQ(job.state(), JobState::kCrashed);
  EXPECT_EQ(job.completed_iterations(), 1);
}

// --- Event-driven API (run + callbacks) -------------------------------------

TEST(TrainingJobEvents, TwoJobsShareOneSimulatorWithTaggedSpans) {
  Rig rig;
  rig.s.tracer().enable();
  const workload::ParallelismPlanner planner{rig.c};
  const auto hosts = planner.active_hosts();
  ASSERT_GE(hosts.size(), 8u);
  const auto plan_a = planner.plan_on_hosts(8, 1, 4, {hosts.begin(), hosts.begin() + 4});
  const auto plan_b = planner.plan_on_hosts(8, 1, 4, {hosts.begin() + 4, hosts.begin() + 8});
  constexpr std::uint32_t kTagA = 7;
  constexpr std::uint32_t kTagB = 9;
  TrainingJob a{rig.c, rig.s, rig.fs, rig.cm, plan_a, fast_model(), {}, kTagA};
  TrainingJob b{rig.c, rig.s, rig.fs, rig.cm, plan_b, fast_model(), {}, kTagB};

  int done_a = 0;
  int done_b = 0;
  a.run(3, [&](bool crashed) {
    EXPECT_FALSE(crashed);
    ++done_a;
  });
  b.run(2, [&](bool crashed) {
    EXPECT_FALSE(crashed);
    ++done_b;
  });
  EXPECT_TRUE(a.running());
  EXPECT_TRUE(b.running());
  rig.s.run();

  EXPECT_EQ(done_a, 1);
  EXPECT_EQ(done_b, 1);
  EXPECT_FALSE(a.running());
  EXPECT_EQ(a.completed_iterations(), 3);
  EXPECT_EQ(b.completed_iterations(), 2);
  EXPECT_EQ(a.throughput().size(), 3u);
  EXPECT_EQ(b.throughput().size(), 2u);

  for (const auto kind :
       {metrics::TraceEventKind::kIterationBegin, metrics::TraceEventKind::kIterationEnd}) {
    std::vector<std::uint32_t> iters_a;
    std::vector<std::uint32_t> iters_b;
    for (const auto& ev : rig.s.tracer().events_of(kind)) {
      ASSERT_TRUE(ev.b == kTagA || ev.b == kTagB) << "untagged iteration span";
      (ev.b == kTagA ? iters_a : iters_b).push_back(ev.a);
    }
    EXPECT_EQ(iters_a, (std::vector<std::uint32_t>{1, 2, 3}));
    EXPECT_EQ(iters_b, (std::vector<std::uint32_t>{1, 2}));
  }
}

TEST(TrainingJobEvents, DestroyMidIterationIsSafe) {
  // Mid-compute, at the phase-2 instant, and with the gradient burst in
  // flight: the in-flight flows drain without touching the dead job.
  for (const Duration at : {Duration::millis(10), Duration::millis(50), Duration::millis(60)}) {
    Rig rig;
    const auto plan = workload::ParallelismPlanner{rig.c}.plan(8, 2, 2);
    auto job = std::make_unique<TrainingJob>(rig.c, rig.s, rig.fs, rig.cm, plan, fast_model());
    bool called = false;
    job->run(2, [&](bool) { called = true; });
    rig.s.schedule_after(at, [&] { job.reset(); });
    rig.s.run();
    EXPECT_EQ(job, nullptr);
    EXPECT_FALSE(called);
  }
}

TEST(TrainingJobEvents, CrashCallbackMayDestroyTheJob) {
  CrashRig cr;
  auto job = std::make_unique<TrainingJob>(cr.rig.c, cr.rig.s, cr.rig.fs, cr.rig.cm, cr.plan,
                                           cr.model, cr.opts);
  ASSERT_EQ(job->run_iterations(1), 1);
  cr.isolate(*job);
  bool crashed = false;
  job->run(3, [&](bool c) {
    crashed = c;
    job.reset();
  });
  while (job != nullptr) ASSERT_TRUE(cr.rig.s.step());
  EXPECT_TRUE(crashed);
  // Stale arrivals of the aborted iteration keep firing; the repaired
  // fabric lets the stalled traffic drain against the dead job.
  cr.fabric.repair_access(cr.plan.hosts[0], 0, 0);
  cr.rig.s.run();
}

TEST(TrainingJobEvents, RunWhileRunningIsRejected) {
  Rig rig;
  const auto plan = workload::ParallelismPlanner{rig.c}.plan(8, 2, 2);
  TrainingJob job{rig.c, rig.s, rig.fs, rig.cm, plan, fast_model()};
  int done = 0;
  job.run(2, [&](bool) { ++done; });
  EXPECT_THROW(job.run(1, nullptr), CheckError);
  EXPECT_THROW(job.run_iterations(1), CheckError);
  rig.s.run();
  EXPECT_EQ(done, 1);
  EXPECT_EQ(job.completed_iterations(), 2);
  // Idle again: a new run() is accepted and iteration numbering continues.
  EXPECT_EQ(job.run_iterations(1), 1);
  EXPECT_EQ(job.completed_iterations(), 3);
}

TEST(TrainingJobEvents, RunAfterCrashIsRejected) {
  CrashRig cr;
  TrainingJob job{cr.rig.c, cr.rig.s, cr.rig.fs, cr.rig.cm, cr.plan, cr.model, cr.opts};
  ASSERT_EQ(job.run_iterations(1), 1);
  cr.isolate(job);
  EXPECT_EQ(job.run_iterations(1), 0);
  ASSERT_EQ(job.state(), JobState::kCrashed);
  EXPECT_THROW(job.run(1, nullptr), CheckError);
  EXPECT_EQ(job.run_iterations(1), 0);
  EXPECT_FALSE(job.running());
}

}  // namespace
}  // namespace hpn::train
// --- MoE training (§10) -------------------------------------------------------
namespace hpn::train {
namespace {

TEST(TrainingJobMoe, ExpertAllToAllRunsPerIteration) {
  Rig rig;
  const auto plan = workload::ParallelismPlanner{rig.c}.plan(8, 1, 4);
  auto model = workload::testsupport::moe_8x7b();
  model.compute_per_iteration = Duration::millis(80);
  model.traffic.dp_all_reduce = DataSize::megabytes(16);
  TrainingJob job{rig.c, rig.s, rig.fs, rig.cm, plan, model};
  EXPECT_EQ(job.run_iterations(3), 3);
  EXPECT_EQ(job.state(), JobState::kRunning);
  // MoE AllToAll adds exposed communication beyond the dense equivalent.
  Rig rig2;
  const auto plan2 = workload::ParallelismPlanner{rig2.c}.plan(8, 1, 4);
  auto dense = model;
  dense.traffic.moe_all_to_all = DataSize::zero();
  TrainingJob dense_job{rig2.c, rig2.s, rig2.fs, rig2.cm, plan2, dense};
  dense_job.run_iterations(3);
  EXPECT_GT(dense_job.steady_samples_per_sec(2), job.steady_samples_per_sec(2));
}

TEST(TrainingJobMoe, WorksOnRailOnlyViaHostRelay) {
  auto cfg = topo::HpnConfig::tiny();
  cfg.rail_only_tier2 = true;
  topo::Cluster c = topo::build_hpn(cfg);
  sim::Simulator s;
  flowsim::FlowSession fs{c.topo, s};
  routing::Router r{c.topo};
  ccl::ConnectionManager cm{c, r};
  const auto plan = workload::ParallelismPlanner{c}.plan(8, 1, 4);
  auto model = workload::testsupport::moe_8x7b();
  model.compute_per_iteration = Duration::millis(80);
  model.traffic.dp_all_reduce = DataSize::megabytes(16);
  TrainingJob job{c, s, fs, cm, plan, model};
  EXPECT_EQ(job.run_iterations(2), 2) << "PXN relay keeps MoE alive on rail-only";
}

}  // namespace
}  // namespace hpn::train
