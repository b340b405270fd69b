// End-to-end LLM training iteration model (§9.1, §9.3).
//
// An iteration is compute plus the three communication flavors of Table 3,
// all simulated through the fabric: TP AllReduce inside each host (NVLink),
// PP activations between consecutive stages (point-to-point), and the DP
// gradient Multi-AllReduce per pipeline stage (per-rail rings — the bursty
// 400G traffic of Fig 2). A configurable fraction of DP communication
// overlaps with the backward pass, as Megatron does.
//
// The job is event-driven: run() starts iterations, the simulator advances
// them, and a completion (or crash) callback hands control back, so many
// jobs can share one Simulator/FlowSession (the multi-tenant cluster).
// run_iterations() is the blocking pump for single-job benches: it runs one
// iteration at a time and steps the simulator until that iteration ends.
//
// Failures: messages to an isolated host retry forever, so the synchronous
// iteration stalls. Each iteration arms a watchdog at start + compute +
// comm_timeout; if the iteration has not drained by then, NCCL aborts and
// the job crashes and must restart from its last checkpoint (§2.3).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "ccl/communicator.h"
#include "ctrl/fabric_controller.h"
#include "metrics/timeseries.h"
#include "workload/parallelism.h"

namespace hpn::train {

struct TrainOptions {
  /// Fraction of DP gradient sync hidden under backward compute.
  double dp_overlap = 0.5;
  /// Collective timeout: a stalled iteration beyond this crashes the job.
  Duration comm_timeout = Duration::minutes(2);
  ccl::CclConfig ccl;
};

enum class JobState { kRunning, kCrashed };

class TrainingJob {
 public:
  /// `crashed` is true when the watchdog aborted a stalled iteration.
  using DoneFn = std::function<void(bool crashed)>;

  /// `job_tag` labels this job's iteration spans (the tracer's b-field).
  TrainingJob(const topo::Cluster& cluster, sim::Simulator& simulator,
              flowsim::FlowSession& session, ccl::ConnectionManager& connections,
              workload::PlacementPlan plan, workload::ModelPreset model,
              TrainOptions options = {}, std::uint32_t job_tag = metrics::kTraceNoId);
  /// Safe to destroy mid-iteration, also from its own callback: pending
  /// continuations and the watchdog are disarmed; in-flight flows drain in
  /// the session without touching this object.
  ~TrainingJob();
  TrainingJob(const TrainingJob&) = delete;
  TrainingJob& operator=(const TrainingJob&) = delete;

  /// Run `iterations` more iterations asynchronously; `on_done` (may be
  /// empty) fires when they all complete or the job crashes. Must not be
  /// called while running or after a crash.
  void run(int iterations, DoneFn on_done);

  /// Run `n` iterations (blocking: drives the simulator). Stops early on
  /// crash. Returns the number of completed iterations.
  int run_iterations(int n);

  /// True from run() until its on_done fires.
  [[nodiscard]] bool running() const { return remaining_ > 0; }
  /// Iterations completed across all run() calls.
  [[nodiscard]] int completed_iterations() const { return completed_; }
  /// Samples/s, one point per completed iteration (timestamped at its end).
  [[nodiscard]] const metrics::TimeSeries& throughput() const { return throughput_; }
  /// Mean samples/s over the last `k` iterations.
  [[nodiscard]] double steady_samples_per_sec(int k = 5) const;
  [[nodiscard]] JobState state() const { return state_; }
  [[nodiscard]] const workload::PlacementPlan& plan() const { return plan_; }

  /// Forward fabric changes to in-flight traffic (port failover).
  void on_fabric_change();

 private:
  void begin_iteration();
  void finish_iteration();
  void crash();

  sim::Simulator* sim_;
  workload::PlacementPlan plan_;
  workload::ModelPreset model_;
  TrainOptions options_;
  std::uint32_t job_tag_;
  /// One single-host communicator per host (TP), one per stage (DP).
  std::vector<std::unique_ptr<ccl::Communicator>> tp_comms_;
  std::vector<std::unique_ptr<ccl::Communicator>> dp_comms_;
  std::unique_ptr<ccl::Communicator> pp_comm_;  ///< Whole-job, for send/recv.
  metrics::TimeSeries throughput_{"samples_per_sec"};
  JobState state_ = JobState::kRunning;
  int completed_ = 0;
  int remaining_ = 0;  ///< Iterations left in the current run().
  DoneFn on_done_;
  TimePoint iter_start_ = TimePoint::origin();
  sim::EventId watchdog_ = sim::kInvalidEvent;
  /// Disarms every pending continuation when the job object dies.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace hpn::train
