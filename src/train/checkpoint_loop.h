// The §2.3 production loop around one training job, event-driven.
//
// Checkpoint, crash when a collective times out, roll back to the last
// checkpoint, pay the restart, resume. The loop drives a TrainingJob one
// run(1) at a time; after each iteration it finishes (target reached, no
// write after the last iteration), writes a checkpoint (CheckpointPolicy's
// interval or every_iterations is due), or runs the next iteration. A write
// goes through StorageTraffic when storage hosts are given and otherwise
// costs the policy's write_time. A crash retracts the progress since the
// last checkpoint and hands the owner one fault::CrashCost, computed only by
// fault::CheckpointModel::crash_cost.
//
// Owners decide what a crash means: the multi-tenant cluster requeues the
// job (a new loop on possibly different hosts); run_for() is the blocking
// single-job pump that restarts in place after restart_time.
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "fault/checkpoint.h"
#include "topo/frontend.h"
#include "train/training_job.h"

namespace hpn::train {

struct ResilientReport {
  Duration wall_time = Duration::zero();
  Duration useful_progress = Duration::zero();  ///< Training retained.
  Duration rolled_back = Duration::zero();
  Duration checkpoint_overhead = Duration::zero();
  Duration restart_downtime = Duration::zero();
  int iterations_kept = 0;
  int iterations_lost = 0;
  int crashes = 0;
  int checkpoints = 0;

  [[nodiscard]] double goodput() const {
    return wall_time > Duration::zero() ? useful_progress / wall_time : 0.0;
  }
};

class CheckpointLoop {
 public:
  /// The loop finishes at whichever comes first.
  struct Target {
    int iterations = std::numeric_limits<int>::max();  ///< Kept by this loop.
    TimePoint deadline = TimePoint::far_future();
  };
  using DoneFn = std::function<void()>;
  using CrashFn = std::function<void(const fault::CrashCost&)>;

  /// Builds the first job. `storage` may be empty: checkpoints then cost the
  /// policy's write_time. `job_tag` labels every job's iteration spans.
  CheckpointLoop(const topo::Cluster& cluster, sim::Simulator& simulator,
                 flowsim::FlowSession& session, ccl::ConnectionManager& connections,
                 routing::Router& router, workload::PlacementPlan plan,
                 workload::ModelPreset model, fault::CheckpointPolicy policy,
                 std::vector<topo::StorageHost> storage = {}, TrainOptions options = {},
                 std::uint32_t job_tag = metrics::kTraceNoId);
  ~CheckpointLoop();
  CheckpointLoop(const CheckpointLoop&) = delete;
  CheckpointLoop& operator=(const CheckpointLoop&) = delete;

  /// Start toward `target`, counting from now. `on_done` fires when it is
  /// reached; `on_crash` fires when the job crashes, after which the loop
  /// stays idle. Either may destroy the loop only by deferring it to a later
  /// event: the crashed job's own callback is still on the stack.
  void run(Target target, DoneFn on_done, CrashFn on_crash);

  /// Run until `wall_budget` of simulated time is spent, restarting in place
  /// (a fresh job on the same plan) `restart_time` after each crash.
  /// Blocking: drives the simulator.
  ResilientReport run_for(Duration wall_budget);

  /// Forward fabric changes to the live job's in-flight traffic.
  void on_fabric_change() { job_->on_fabric_change(); }

  [[nodiscard]] const ResilientReport& report() const { return report_; }

 private:
  void next();
  void on_iteration(TimePoint began);
  void write_checkpoint();
  void on_crash();
  void mark_checkpoint();

  const topo::Cluster* cluster_;
  sim::Simulator* sim_;
  flowsim::FlowSession* session_;
  ccl::ConnectionManager* conns_;
  routing::Router* router_;
  workload::ModelPreset model_;
  fault::CheckpointPolicy policy_;
  std::vector<topo::StorageHost> storage_;
  TrainOptions options_;
  std::uint32_t job_tag_;
  std::unique_ptr<TrainingJob> job_;

  Target target_;
  DoneFn on_done_;
  CrashFn on_crash_;
  ResilientReport report_;
  TimePoint started_ = TimePoint::origin();
  TimePoint last_checkpoint_ = TimePoint::origin();
  int iterations_since_checkpoint_ = 0;
  Duration progress_since_checkpoint_ = Duration::zero();
  /// Disarms a pending checkpoint write or restart when the loop dies.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace hpn::train
