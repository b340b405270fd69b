// Differential suite: the event-driven TrainingJob, driven through its
// blocking run_iterations() pump, against the original blocking loop kept
// verbatim in tests/support/reference_training_job.h. On identical rigs the
// two engines must emit the same iteration and collective spans, the same
// throughput series bit for bit and the same completed counts; in a crash
// drill both must crash on the same iteration.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "tests/support/moe_preset.h"
#include "tests/support/reference_training_job.h"
#include "topo/builders.h"
#include "train/training_job.h"

namespace hpn::train {
namespace {

enum class Fault {
  kNone,
  kFailThenRepair,  ///< One access link down mid-collective, repaired later.
  kFlap,            ///< One access link flaps, back before the timeout.
  kPermanent,       ///< One access link down for good.
};

struct Drill {
  Fault fault;
  bool dual_tor;
  bool moe;
  const char* name;
};

// gtest lists each case with its parameter; without this it dumps the
// struct's bytes, whose name pointer moves with ASLR on every run.
void PrintTo(const Drill& drill, std::ostream* os) { *os << drill.name; }

struct Outcome {
  std::vector<metrics::TraceEvent> spans;
  std::vector<metrics::TimeSeries::Point> throughput;
  int completed = 0;
  JobState state = JobState::kRunning;
  std::size_t iterations_begun = 0;
};

/// The golden-trace drill shape: a 4-host job, 3 healthy iterations,
/// then a fault 110 ms into the next one (flows in flight) and 5 more.
template <class Job>
Outcome run_drill(const Drill& drill) {
  auto cfg = topo::HpnConfig::tiny();
  cfg.segments_per_pod = 1;
  cfg.hosts_per_segment = 4;
  cfg.dual_tor = drill.dual_tor;
  topo::Cluster cluster = topo::build_hpn(cfg);
  sim::Simulator sim;
  sim.tracer().enable();
  flowsim::FlowSession session{cluster.topo, sim};
  routing::Router router{cluster.topo};
  ccl::ConnectionManager connections{cluster, router};
  ctrl::FabricController fabric{cluster, sim, router};

  auto model = drill.moe ? workload::testsupport::moe_8x7b() : workload::llama_7b();
  model.compute_per_iteration = Duration::millis(100);
  if (drill.moe) model.traffic.dp_all_reduce = DataSize::megabytes(16);
  const auto plan = workload::ParallelismPlanner{cluster}.plan(8, 1, 4);
  TrainOptions opts;
  opts.comm_timeout = Duration::seconds(2.0);
  Job job{cluster, sim, session, connections, plan, model, opts};

  Outcome out;
  out.completed = job.run_iterations(3);
  const TimePoint t0 = sim.now();
  const int host = plan.hosts[0];
  switch (drill.fault) {
    case Fault::kNone:
      break;
    case Fault::kFailThenRepair:
      sim.schedule_at(t0 + Duration::millis(110), [&] {
        fabric.fail_access(host, 0, 0);
        job.on_fabric_change();
      });
      sim.schedule_at(t0 + Duration::millis(400), [&] {
        fabric.repair_access(host, 0, 0);
        job.on_fabric_change();
      });
      break;
    case Fault::kFlap:
      sim.schedule_at(t0 + Duration::millis(110), [&] {
        fabric.flap_access(host, 0, 0, Duration::seconds(1.0));
        job.on_fabric_change();
      });
      break;
    case Fault::kPermanent:
      sim.schedule_at(t0 + Duration::millis(110), [&] {
        fabric.fail_access(host, 0, 0);
        job.on_fabric_change();
      });
      break;
  }
  out.completed += job.run_iterations(5);
  out.state = job.state();
  out.throughput = job.throughput().points();
  for (const auto& ev : sim.tracer().events()) {
    switch (ev.kind) {
      case metrics::TraceEventKind::kIterationBegin:
        ++out.iterations_begun;
        [[fallthrough]];
      case metrics::TraceEventKind::kIterationEnd:
      case metrics::TraceEventKind::kCollectiveBegin:
      case metrics::TraceEventKind::kCollectiveEnd:
        out.spans.push_back(ev);
        break;
      default:
        break;
    }
  }
  return out;
}

class TrainingJobDifferential : public ::testing::TestWithParam<Drill> {};

TEST_P(TrainingJobDifferential, MatchesBlockingReference) {
  const Drill& drill = GetParam();
  const Outcome want = run_drill<reference::TrainingJob>(drill);
  const Outcome got = run_drill<TrainingJob>(drill);

  EXPECT_EQ(got.completed, want.completed);
  EXPECT_EQ(got.state, want.state);
  EXPECT_EQ(got.iterations_begun, want.iterations_begun)
      << "a crash must land on the same iteration";

  ASSERT_EQ(got.throughput.size(), want.throughput.size());
  for (std::size_t i = 0; i < want.throughput.size(); ++i) {
    EXPECT_EQ(got.throughput[i].at, want.throughput[i].at) << "point " << i;
    EXPECT_EQ(got.throughput[i].value, want.throughput[i].value) << "point " << i;
  }

  ASSERT_EQ(got.spans.size(), want.spans.size());
  for (std::size_t i = 0; i < want.spans.size(); ++i) {
    const auto& g = got.spans[i];
    const auto& w = want.spans[i];
    EXPECT_EQ(g.at, w.at) << "span " << i;
    EXPECT_EQ(g.kind, w.kind) << "span " << i;
    EXPECT_EQ(g.a, w.a) << "span " << i;
    EXPECT_EQ(g.b, w.b) << "span " << i;
    EXPECT_EQ(g.value, w.value) << "span " << i;
  }
}

TEST(TrainingJobDifferentialDrills, ExerciseWhatTheyClaim) {
  // Guards the drill table: the healthy and repaired drills finish all 8
  // iterations, the permanent single-ToR failure crashes.
  const Outcome healthy = run_drill<TrainingJob>({Fault::kNone, true, false, "healthy"});
  EXPECT_EQ(healthy.completed, 8);
  const Outcome flap = run_drill<TrainingJob>({Fault::kFlap, false, false, "flap"});
  EXPECT_EQ(flap.completed, 8);
  EXPECT_EQ(flap.state, JobState::kRunning);
  const Outcome crash = run_drill<TrainingJob>({Fault::kPermanent, false, false, "crash"});
  EXPECT_EQ(crash.state, JobState::kCrashed);
  EXPECT_LT(crash.completed, 8);
}

INSTANTIATE_TEST_SUITE_P(
    Drills, TrainingJobDifferential,
    ::testing::Values(Drill{Fault::kNone, true, false, "healthy"},
                      Drill{Fault::kFailThenRepair, true, false,
                            "dual_tor_fail_mid_collective"},
                      Drill{Fault::kFlap, false, false, "single_tor_flap_repaired"},
                      Drill{Fault::kNone, true, true, "moe"},
                      Drill{Fault::kPermanent, false, false, "single_tor_crash"}),
    [](const ::testing::TestParamInfo<Drill>& param_info) {
      return std::string{param_info.param.name};
    });

}  // namespace
}  // namespace hpn::train
