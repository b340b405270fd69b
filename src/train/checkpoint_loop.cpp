#include "train/checkpoint_loop.h"

#include <utility>

#include "common/check.h"
#include "workload/storage.h"

namespace hpn::train {

CheckpointLoop::CheckpointLoop(const topo::Cluster& cluster, sim::Simulator& simulator,
                               flowsim::FlowSession& session,
                               ccl::ConnectionManager& connections, routing::Router& router,
                               workload::PlacementPlan plan, workload::ModelPreset model,
                               fault::CheckpointPolicy policy,
                               std::vector<topo::StorageHost> storage, TrainOptions options,
                               std::uint32_t job_tag)
    : cluster_{&cluster},
      sim_{&simulator},
      session_{&session},
      conns_{&connections},
      router_{&router},
      model_{model},
      policy_{policy},
      storage_{std::move(storage)},
      options_{options},
      job_tag_{job_tag},
      job_{std::make_unique<TrainingJob>(cluster, simulator, session, connections,
                                         std::move(plan), model, options, job_tag)} {}

CheckpointLoop::~CheckpointLoop() { *alive_ = false; }

void CheckpointLoop::run(Target target, DoneFn on_done, CrashFn on_crash) {
  target_ = target;
  on_done_ = std::move(on_done);
  on_crash_ = std::move(on_crash);
  report_ = {};
  started_ = sim_->now();
  mark_checkpoint();
  next();
}

ResilientReport CheckpointLoop::run_for(Duration wall_budget) {
  bool done = false;
  run({.deadline = sim_->now() + wall_budget}, [&done] { done = true; },
      [this](const fault::CrashCost& cost) {
        sim_->schedule_after(cost.restart, [this, alive = alive_] {
          if (!*alive) return;
          // Fresh communicators and QPs over the current fabric, on the same
          // plan; the job resumes from the checkpoint it rolled back to.
          job_ = std::make_unique<TrainingJob>(*cluster_, *sim_, *session_, *conns_,
                                               job_->plan(), model_, options_, job_tag_);
          mark_checkpoint();
          next();
        });
      });
  while (!done) HPN_CHECK(sim_->step());
  return report_;
}

void CheckpointLoop::next() {
  const TimePoint now = sim_->now();
  if (report_.iterations_kept >= target_.iterations || now >= target_.deadline) {
    report_.wall_time = now - started_;
    on_done_();
    return;
  }
  if (now - last_checkpoint_ >= policy_.interval ||
      (policy_.every_iterations > 0 &&
       iterations_since_checkpoint_ >= policy_.every_iterations)) {
    write_checkpoint();
    return;
  }
  job_->run(1, [this, now](bool crashed) {
    if (crashed) {
      on_crash();
    } else {
      on_iteration(now);
    }
  });
}

void CheckpointLoop::on_iteration(TimePoint began) {
  const Duration took = sim_->now() - began;
  ++iterations_since_checkpoint_;
  ++report_.iterations_kept;
  report_.useful_progress += took;
  progress_since_checkpoint_ += took;
  next();
}

void CheckpointLoop::write_checkpoint() {
  // Training pauses for a consistent snapshot, as production does.
  auto written = [this, start = sim_->now(), alive = alive_] {
    if (!*alive) return;
    report_.checkpoint_overhead += sim_->now() - start;
    ++report_.checkpoints;
    mark_checkpoint();
    next();
  };
  if (storage_.empty()) {
    sim_->schedule_after(policy_.write_time, std::move(written));
  } else {
    const DataSize per_host = policy_.per_gpu * static_cast<double>(cluster_->gpus_per_host);
    workload::StorageTraffic{*cluster_, *session_, *router_}.checkpoint_write(
        job_->plan().hosts, storage_, per_host, std::move(written));
  }
}

void CheckpointLoop::on_crash() {
  // Everything since the last checkpoint is retracted.
  const fault::CrashCost cost = fault::CheckpointModel{policy_}.crash_cost(
      sim_->now() - last_checkpoint_, job_->plan().world_size());
  ++report_.crashes;
  report_.iterations_kept -= iterations_since_checkpoint_;
  report_.iterations_lost += iterations_since_checkpoint_;
  report_.useful_progress -= progress_since_checkpoint_;
  report_.rolled_back += cost.rolled_back;
  report_.restart_downtime += cost.restart;
  on_crash_(cost);
}

void CheckpointLoop::mark_checkpoint() {
  last_checkpoint_ = sim_->now();
  iterations_since_checkpoint_ = 0;
  progress_since_checkpoint_ = Duration::zero();
}

}  // namespace hpn::train
