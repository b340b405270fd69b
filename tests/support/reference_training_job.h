// Test-only oracle: the original blocking TrainingJob, kept verbatim
// (header-only, renamed into namespace hpn::reference) so the event-driven
// TrainingJob that replaced it can be differentially tested against the
// engine every bench, golden and results CSV was produced with. It detects
// a crash by polling the clock after each simulator step, so its crash lands
// at the first event past the deadline rather than exactly on it.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "common/check.h"
#include "train/training_job.h"

namespace hpn::reference {

using train::JobState;
using train::TrainOptions;

class TrainingJob {
 public:
  TrainingJob(const topo::Cluster& cluster, sim::Simulator& simulator,
              flowsim::FlowSession& session, ccl::ConnectionManager& connections,
              workload::PlacementPlan plan, workload::ModelPreset model,
              TrainOptions options = {})
      : cluster_{&cluster},
        sim_{&simulator},
        session_{&session},
        plan_{std::move(plan)},
        model_{model},
        options_{options} {
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
  ~TrainingJob() { *alive_ = false; }
  TrainingJob(const TrainingJob&) = delete;
  TrainingJob& operator=(const TrainingJob&) = delete;

  /// Run `n` iterations (blocking: drives the simulator). Stops early on
  /// crash. Returns the number of completed iterations.
  int run_iterations(int n) {
    int completed = 0;
    for (int i = 0; i < n && state_ == JobState::kRunning; ++i) {
      const auto t = run_one_iteration();
      if (!t.has_value()) break;
      const double samples =
          static_cast<double>(plan_.world_size()) * model_.samples_per_iteration_per_gpu;
      throughput_.record(sim_->now(), samples / t->as_seconds());
      ++completed;
    }
    return completed;
  }

  /// Samples/s, one point per completed iteration (timestamped at its end).
  [[nodiscard]] const metrics::TimeSeries& throughput() const { return throughput_; }
  /// Mean samples/s over the last `k` iterations.
  [[nodiscard]] double steady_samples_per_sec(int k = 5) const {
    const auto& pts = throughput_.points();
    HPN_CHECK_MSG(!pts.empty(), "no completed iterations");
    const std::size_t take = std::min<std::size_t>(static_cast<std::size_t>(k), pts.size());
    double sum = 0.0;
    for (std::size_t i = pts.size() - take; i < pts.size(); ++i) sum += pts[i].value;
    return sum / static_cast<double>(take);
  }
  [[nodiscard]] JobState state() const { return state_; }
  [[nodiscard]] const workload::PlacementPlan& plan() const { return plan_; }

  /// Forward fabric changes to in-flight traffic (port failover).
  void on_fabric_change() {
    for (auto& c : tp_comms_) c->on_fabric_change();
    for (auto& c : dp_comms_) c->on_fabric_change();
    pp_comm_->on_fabric_change();
  }

 private:
  /// Runs one iteration; returns its wall time or nullopt on crash.
  std::optional<Duration> run_one_iteration() {
    const TimePoint start = sim_->now();
    const TimePoint deadline = start + model_.compute_per_iteration + options_.comm_timeout;
    ++iteration_;
    sim_->trace(metrics::TraceEventKind::kIterationBegin, iteration_);

    // Shared so late-firing callbacks stay valid if we bail out on a crash.
    auto pending = std::make_shared<int>(0);
    auto arrive = [pending] { --*pending; };

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
    sim_->schedule_after(model_.compute_per_iteration, [this, alive = alive_, pending, arrive] {
      if (!*alive) return;
      arrive();  // releases the phase-1 slot for this chain
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
    });

    while (*pending > 0) {
      if (!sim_->step() || sim_->now() > deadline) {
        // Out of events with work pending (everything stalled on retries) or
        // stalled beyond the collective timeout: NCCL aborts, the job crashes.
        state_ = JobState::kCrashed;
        return std::nullopt;
      }
    }
    const Duration took = sim_->now() - start;
    sim_->trace(metrics::TraceEventKind::kIterationEnd, iteration_, metrics::kTraceNoId,
                took.as_seconds());
    return took;
  }

  const topo::Cluster* cluster_;
  sim::Simulator* sim_;
  flowsim::FlowSession* session_;
  workload::PlacementPlan plan_;
  workload::ModelPreset model_;
  TrainOptions options_;
  /// One single-host communicator per host (TP), one per stage (DP).
  std::vector<std::unique_ptr<ccl::Communicator>> tp_comms_;
  std::vector<std::unique_ptr<ccl::Communicator>> dp_comms_;
  std::unique_ptr<ccl::Communicator> pp_comm_;  ///< Whole-job, for send/recv.
  metrics::TimeSeries throughput_{"samples_per_sec"};
  JobState state_ = JobState::kRunning;
  std::uint32_t iteration_ = 0;  ///< 1-based, for tracer iteration spans.
  /// Disarms the phase-2 continuation if the job is destroyed mid-iteration
  /// (crash + restart replaces the job while events are pending).
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace hpn::reference
