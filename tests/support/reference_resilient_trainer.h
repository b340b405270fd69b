// Test-only oracle: the original blocking ResilientTrainer, kept verbatim
// (header-only, renamed into namespace hpn::reference) so the event-driven
// train::CheckpointLoop that replaced it can be differentially tested
// against the loop examples/resilient_training was produced with. The one
// addition is on_fabric_change(), so a rig can subscribe both engines to
// fabric changes alike.
#pragma once

#include <memory>
#include <vector>

#include "fault/checkpoint.h"
#include "tests/support/checkpoint_write.h"
#include "train/checkpoint_loop.h"
#include "train/training_job.h"
#include "workload/storage.h"

namespace hpn::reference {

using train::ResilientReport;
using train::TrainingJob;
using train::TrainOptions;

class ResilientTrainer {
 public:
  /// `storage` may be empty: checkpoints then cost only the stall time
  /// (write modeled as local), which still exercises the §2.3 accounting.
  ResilientTrainer(const topo::Cluster& cluster, sim::Simulator& simulator,
                   flowsim::FlowSession& session, ccl::ConnectionManager& connections,
                   routing::Router& router, workload::PlacementPlan plan,
                   workload::ModelPreset model, fault::CheckpointPolicy checkpoints,
                   std::vector<topo::StorageHost> storage = {},
                   TrainOptions options = {});

  /// Forward fabric changes to the live job's in-flight traffic.
  void on_fabric_change() { job_->on_fabric_change(); }

  /// Run until `wall_budget` of simulated time is spent (training, check-
  /// pointing, crashing and restarting as events dictate).
  ResilientReport run_for(Duration wall_budget);

 private:
  /// Write one checkpoint (blocking: training pauses, as production does
  /// for consistent snapshots). Returns the time it took.
  Duration write_checkpoint();
  /// Recreate the job after a crash (fresh communicators over the repaired
  /// fabric) and account the rollback.
  void restart(ResilientReport& report);

  const topo::Cluster* cluster_;
  sim::Simulator* sim_;
  flowsim::FlowSession* session_;
  ccl::ConnectionManager* conns_;
  routing::Router* router_;
  workload::PlacementPlan plan_;
  workload::ModelPreset model_;
  fault::CheckpointPolicy ckpt_policy_;
  std::vector<topo::StorageHost> storage_;
  TrainOptions options_;
  std::unique_ptr<TrainingJob> job_;
  TimePoint last_checkpoint_;
  int iterations_since_checkpoint_ = 0;
  Duration progress_since_checkpoint_ = Duration::zero();
};

inline ResilientTrainer::ResilientTrainer(const topo::Cluster& cluster, sim::Simulator& simulator,
                                   flowsim::FlowSession& session,
                                   ccl::ConnectionManager& connections,
                                   routing::Router& router, workload::PlacementPlan plan,
                                   workload::ModelPreset model,
                                   fault::CheckpointPolicy checkpoints,
                                   std::vector<topo::StorageHost> storage,
                                   TrainOptions options)
    : cluster_{&cluster},
      sim_{&simulator},
      session_{&session},
      conns_{&connections},
      router_{&router},
      plan_{std::move(plan)},
      model_{model},
      ckpt_policy_{checkpoints},
      storage_{std::move(storage)},
      options_{options} {
  job_ = std::make_unique<TrainingJob>(*cluster_, *sim_, *session_, *conns_, plan_, model_,
                                       options_);
  last_checkpoint_ = sim_->now();
}

inline Duration ResilientTrainer::write_checkpoint() {
  const TimePoint start = sim_->now();
  if (storage_.empty()) {
    // No storage cluster modeled: charge the policy's nominal write time.
    sim_->run_for(ckpt_policy_.write_time);
  } else {
    workload::StorageTraffic st{*cluster_, *session_, *router_};
    const DataSize per_host =
        ckpt_policy_.per_gpu * static_cast<double>(cluster_->gpus_per_host);
    workload::testsupport::run_checkpoint_write(*sim_, st, plan_.hosts, storage_, per_host);
  }
  last_checkpoint_ = sim_->now();
  iterations_since_checkpoint_ = 0;
  progress_since_checkpoint_ = Duration::zero();
  return sim_->now() - start;
}

inline void ResilientTrainer::restart(ResilientReport& report) {
  ++report.crashes;
  report.iterations_lost += iterations_since_checkpoint_;
  // Rollback: everything since the last checkpoint is lost.
  const Duration lost = sim_->now() - last_checkpoint_;
  report.rolled_back += lost;
  // Downtime: reload + re-init before the first new iteration.
  sim_->run_for(ckpt_policy_.restart_time);
  report.restart_downtime += ckpt_policy_.restart_time;
  // Fresh job (new communicators, fresh QPs) over the current fabric.
  job_ = std::make_unique<TrainingJob>(*cluster_, *sim_, *session_, *conns_, plan_, model_,
                                       options_);
  iterations_since_checkpoint_ = 0;
  progress_since_checkpoint_ = Duration::zero();
  last_checkpoint_ = sim_->now();  // restart resumes *from* the checkpoint
}

inline ResilientReport ResilientTrainer::run_for(Duration wall_budget) {
  ResilientReport report;
  const TimePoint start = sim_->now();
  const TimePoint deadline = start + wall_budget;

  while (sim_->now() < deadline) {
    // Checkpoint when due.
    if (sim_->now() - last_checkpoint_ >= ckpt_policy_.interval) {
      const Duration cost = write_checkpoint();
      report.checkpoint_overhead += cost;
      ++report.checkpoints;
      continue;
    }
    const TimePoint before = sim_->now();
    if (job_->run_iterations(1) == 1) {
      ++iterations_since_checkpoint_;
      report.iterations_kept += 1;
      report.useful_progress += sim_->now() - before;
      progress_since_checkpoint_ += sim_->now() - before;
    } else {
      // Crash: everything since the last checkpoint is retracted.
      report.iterations_kept -= iterations_since_checkpoint_;
      report.useful_progress -= progress_since_checkpoint_;
      restart(report);
    }
  }
  report.wall_time = sim_->now() - start;
  return report;
}

}  // namespace hpn::reference
