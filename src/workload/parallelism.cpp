#include "workload/parallelism.h"

namespace hpn::workload {

ModelPreset gpt3_175b() {
  return ModelPreset{
      .name = "GPT3-175B",
      .traffic = IterationTraffic{},  // Table 3 defaults
      .compute_per_iteration = Duration::seconds(18.0),
      .samples_per_iteration_per_gpu = 1,
      .dp_rounds_per_iteration = 12,
  };
}

ModelPreset llama_7b() {
  // ~25x fewer parameters than GPT-3 175B: gradients and TP activations
  // shrink proportionally; iterations are much shorter.
  return ModelPreset{
      .name = "LLaMa-7B",
      .traffic =
          IterationTraffic{
              .dp_all_reduce = DataSize::megabytes(220),
              .pp_send = DataSize::megabytes(6),
              .tp_all_reduce = DataSize::megabytes(96),
          },
      .compute_per_iteration = Duration::seconds(0.55),
      .samples_per_iteration_per_gpu = 1,
      .dp_rounds_per_iteration = 12,
  };
}

ModelPreset llama_13b() {
  return ModelPreset{
      .name = "LLaMa-13B",
      .traffic =
          IterationTraffic{
              .dp_all_reduce = DataSize::megabytes(410),
              .pp_send = DataSize::megabytes(6),
              .tp_all_reduce = DataSize::megabytes(170),
          },
      .compute_per_iteration = Duration::seconds(1.0),
      .samples_per_iteration_per_gpu = 1,
      .dp_rounds_per_iteration = 20,
  };
}

std::vector<int> ParallelismPlanner::active_hosts() const {
  std::vector<int> out;
  for (const topo::Host& h : cluster_->hosts) {
    if (!h.backup) out.push_back(h.index);
  }
  return out;
}

PlacementPlan ParallelismPlanner::plan(int tp, int pp, int dp) const {
  return plan_on_hosts(tp, pp, dp, active_hosts());
}

PlacementPlan ParallelismPlanner::plan_on_hosts(int tp, int pp, int dp,
                                                const std::vector<int>& hosts) const {
  HPN_CHECK_MSG(tp == cluster_->gpus_per_host,
                "TP must fit the NVLink domain (tp == gpus_per_host)");
  HPN_CHECK(pp >= 1 && dp >= 1);
  const int hosts_needed = pp * dp;
  HPN_CHECK_MSG(static_cast<int>(hosts.size()) >= hosts_needed,
                "job needs " << hosts_needed << " hosts, cluster offers " << hosts.size());

  PlacementPlan plan;
  plan.tp = tp;
  plan.pp = pp;
  plan.dp = dp;
  plan.hosts.assign(hosts.begin(), hosts.begin() + hosts_needed);

  const int rails = tp;
  auto host_of = [&](int stage, int replica) {
    return plan.hosts[static_cast<std::size_t>(stage * dp + replica)];
  };

  // TP groups: one per host.
  for (const int h : plan.hosts) {
    std::vector<int> group;
    for (int r = 0; r < rails; ++r) group.push_back(h * rails + r);
    plan.tp_groups.push_back(std::move(group));
  }

  // DP groups: per stage, all replicas' hosts (whole hosts; Multi-AllReduce
  // runs per rail inside the communicator).
  for (int s = 0; s < pp; ++s) {
    std::vector<int> group;
    for (int r = 0; r < dp; ++r) {
      const int h = host_of(s, r);
      for (int rail = 0; rail < rails; ++rail) group.push_back(h * rails + rail);
    }
    plan.dp_groups.push_back(std::move(group));
  }

  // PP boundaries: per replica, consecutive stages, carried on rail 0.
  for (int r = 0; r < dp; ++r) {
    for (int s = 0; s + 1 < pp; ++s) {
      plan.pp_pairs.emplace_back(host_of(s, r) * rails, host_of(s + 1, r) * rails);
    }
  }
  return plan;
}

}  // namespace hpn::workload
