#include "train/training_job.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace hpn::train {

TrainingJob::TrainingJob(const topo::Cluster& cluster, sim::Simulator& simulator,
                         flowsim::FlowSession& session, ccl::ConnectionManager& connections,
                         workload::PlacementPlan plan, workload::ModelPreset model,
                         TrainOptions options, std::uint32_t job_tag)
    : sim_{&simulator},
      plan_{std::move(plan)},
      model_{model},
      options_{options},
      job_tag_{job_tag} {
  HPN_CHECK(options_.dp_overlap >= 0.0 && options_.dp_overlap <= 1.0);
  for (const auto& tp_group : plan_.tp_groups) {
    tp_comms_.push_back(std::make_unique<ccl::Communicator>(
        cluster, simulator, session, connections, tp_group, options_.ccl));
  }
  for (const auto& dp_group : plan_.dp_groups) {
    dp_comms_.push_back(std::make_unique<ccl::Communicator>(
        cluster, simulator, session, connections, dp_group, options_.ccl));
  }
  // Whole-job communicator used only for point-to-point PP sends.
  std::vector<int> all_ranks;
  for (const int h : plan_.hosts) {
    for (int r = 0; r < cluster.gpus_per_host; ++r) {
      all_ranks.push_back(h * cluster.gpus_per_host + r);
    }
  }
  pp_comm_ = std::make_unique<ccl::Communicator>(cluster, simulator, session, connections,
                                                 all_ranks, options_.ccl);
}

TrainingJob::~TrainingJob() {
  *alive_ = false;
  if (watchdog_ != sim::kInvalidEvent) sim_->cancel(watchdog_);
}

void TrainingJob::run(int iterations, DoneFn on_done) {
  HPN_CHECK_MSG(state_ == JobState::kRunning, "job crashed");
  HPN_CHECK_MSG(!running(), "job already running");
  HPN_CHECK(iterations > 0);
  remaining_ = iterations;
  on_done_ = std::move(on_done);
  begin_iteration();
}

int TrainingJob::run_iterations(int n) {
  const int before = completed_;
  for (int i = 0; i < n && state_ == JobState::kRunning; ++i) {
    // One iteration per run() so the next one starts after the finishing
    // event returns. The armed watchdog keeps the event queue non-empty.
    run(1, nullptr);
    while (running()) HPN_CHECK(sim_->step());
  }
  return completed_ - before;
}

void TrainingJob::begin_iteration() {
  iter_start_ = sim_->now();
  sim_->trace(metrics::TraceEventKind::kIterationBegin,
              static_cast<std::uint32_t>(completed_ + 1), job_tag_);

  watchdog_ = sim_->schedule_at(
      iter_start_ + model_.compute_per_iteration + options_.comm_timeout,
      [this, alive = alive_] {
        if (!*alive) return;
        watchdog_ = sim::kInvalidEvent;
        crash();
      });

  auto pending = std::make_shared<int>(0);
  // A crash is terminal (run() rejects a crashed job), so every arrival
  // after it belongs to the aborted iteration and is dropped.
  auto arrive = [this, alive = alive_, pending] {
    if (!*alive || state_ == JobState::kCrashed) return;
    if (--*pending == 0) finish_iteration();
  };

  // Phase 1 — compute (forward + backward) with TP AllReduce interleaved
  // (TP blocks between layers; model ~half of it as exposed alongside).
  ++*pending;
  sim_->schedule_after(model_.compute_per_iteration, arrive);
  for (auto& comm : tp_comms_) {
    ++*pending;
    comm->all_reduce(model_.traffic.tp_all_reduce * 0.5, arrive);
  }
  // Phase 2 — the backward-phase gradient burst (Fig 2): DP Multi-AllReduce
  // per stage plus PP boundary traffic, exposed after compute except for
  // the overlapped share.
  ++*pending;
  sim_->schedule_after(model_.compute_per_iteration,
                       [this, alive = alive_, pending, arrive] {
    if (!*alive || state_ == JobState::kCrashed) return;
    const DataSize dp_exposed = model_.traffic.dp_all_reduce *
                                static_cast<double>(model_.dp_rounds_per_iteration) *
                                (1.0 - options_.dp_overlap);
    for (auto& comm : dp_comms_) {
      ++*pending;
      comm->multi_all_reduce(dp_exposed, arrive);
    }
    for (const auto& [src, dst] : plan_.pp_pairs) {
      ++*pending;
      pp_comm_->point_to_point(src, dst, model_.traffic.pp_send, arrive);
      ++*pending;
      pp_comm_->point_to_point(dst, src, model_.traffic.pp_send, arrive);
    }
    // MoE expert routing: whole-job AllToAll with PXN host relay (§10).
    if (model_.traffic.moe_all_to_all > DataSize::zero()) {
      ++*pending;
      pp_comm_->all_to_all(model_.traffic.moe_all_to_all, /*allow_host_relay=*/true,
                           arrive);
    }
    // Release this chain's own slot LAST: doing it before the collectives
    // are enqueued lets `pending` hit zero mid-lambda and finish the
    // iteration without them.
    arrive();
  });
}

void TrainingJob::finish_iteration() {
  sim_->cancel(watchdog_);
  watchdog_ = sim::kInvalidEvent;
  ++completed_;
  --remaining_;
  const Duration took = sim_->now() - iter_start_;
  sim_->trace(metrics::TraceEventKind::kIterationEnd,
              static_cast<std::uint32_t>(completed_), job_tag_, took.as_seconds());
  const double samples =
      static_cast<double>(plan_.world_size()) * model_.samples_per_iteration_per_gpu;
  throughput_.record(sim_->now(), samples / took.as_seconds());
  if (remaining_ > 0) {
    begin_iteration();
    return;
  }
  DoneFn done = std::move(on_done_);
  on_done_ = nullptr;
  if (done) done(/*crashed=*/false);
}

void TrainingJob::crash() {
  // NCCL abort: stale the in-flight iteration, then hand control back. The
  // callback may destroy this object — it runs last, and nothing touches
  // members afterwards.
  state_ = JobState::kCrashed;
  remaining_ = 0;
  DoneFn done = std::move(on_done_);
  on_done_ = nullptr;
  if (done) done(/*crashed=*/true);
}

double TrainingJob::steady_samples_per_sec(int k) const {
  const auto& pts = throughput_.points();
  HPN_CHECK_MSG(!pts.empty(), "no completed iterations");
  const std::size_t take = std::min<std::size_t>(static_cast<std::size_t>(k), pts.size());
  double sum = 0.0;
  for (std::size_t i = pts.size() - take; i < pts.size(); ++i) sum += pts[i].value;
  return sum / static_cast<double>(take);
}

void TrainingJob::on_fabric_change() {
  for (auto& c : tp_comms_) c->on_fabric_change();
  for (auto& c : dp_comms_) c->on_fabric_change();
  pp_comm_->on_fabric_change();
}

}  // namespace hpn::train
