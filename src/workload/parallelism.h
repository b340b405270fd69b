// Megatron-style hybrid parallelism planning (§2.1, §7).
//
// A job of G GPUs factors into TP x PP x DP. Placement follows the paper's
// rules: TP groups live inside one host (NVLink); DP replicas of the same
// pipeline stage sit on *adjacent* hosts so their heavy AllReduce stays
// low-tier; PP stage boundaries carry the least traffic and are the ones
// allowed to cross segments/Pods (§7 assigns cross-Pod links to PP).
#pragma once

#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "topo/cluster.h"

namespace hpn::workload {

/// Per-iteration traffic volumes of each parallelism flavor (Table 3).
struct IterationTraffic {
  DataSize dp_all_reduce = DataSize::gigabytes(5.5);  ///< Per GPU, AllReduce.
  DataSize pp_send = DataSize::megabytes(6);          ///< Per stage boundary.
  DataSize tp_all_reduce = DataSize::megabytes(560);  ///< Per GPU, intra-host.
  /// MoE expert routing: per-GPU AllToAll volume per iteration (zero for
  /// dense models). §10: "training the increasingly popular MoE models
  /// involves substantial all-to-all traffic towards different Experts".
  DataSize moe_all_to_all = DataSize::zero();
};

/// Model presets used in the evaluation (§9.1). Traffic scales roughly with
/// parameter count; compute per iteration is calibrated per model.
struct ModelPreset {
  const char* name;
  IterationTraffic traffic;
  Duration compute_per_iteration;
  int samples_per_iteration_per_gpu;
  /// Gradient-sync rounds per iteration. Table 3 quotes the volume of one
  /// DP AllReduce; production iterations sync bucket-by-bucket, producing
  /// the seconds-long 400G bursts of Fig 2. Calibrated per model so the
  /// exposed communication share matches the paper's burst duty cycle.
  int dp_rounds_per_iteration = 1;
};

ModelPreset gpt3_175b();
ModelPreset llama_7b();
ModelPreset llama_13b();

struct PlacementPlan {
  int tp = 8;
  int pp = 1;
  int dp = 1;
  /// Host indexes used, in assignment order: host(stage s, replica r) =
  /// hosts[s * dp + r] (replica-adjacent for DP locality).
  std::vector<int> hosts;
  /// Global GPU ranks per TP group (= one host each when tp == rails).
  std::vector<std::vector<int>> tp_groups;
  /// DP groups: for each pipeline stage, the ranks holding the same model
  /// shard across replicas — these run Multi-AllReduce together. One group
  /// per (stage); members are whole hosts (all rails).
  std::vector<std::vector<int>> dp_groups;
  /// PP boundaries: (src rank, dst rank) per consecutive-stage pair per
  /// replica (rail 0 carries the p2p in our model).
  std::vector<std::pair<int, int>> pp_pairs;

  [[nodiscard]] int world_size() const { return tp * pp * dp; }
};

/// Plans a job on `cluster`: takes the first `pp*dp` non-backup hosts (or a
/// caller-provided host list), stage-major so DP replicas are adjacent.
class ParallelismPlanner {
 public:
  explicit ParallelismPlanner(const topo::Cluster& cluster) : cluster_{&cluster} {}

  /// tp must equal gpus_per_host (TP stays on NVLink).
  [[nodiscard]] PlacementPlan plan(int tp, int pp, int dp) const;
  [[nodiscard]] PlacementPlan plan_on_hosts(int tp, int pp, int dp,
                                            const std::vector<int>& hosts) const;

  /// Non-backup hosts in index order.
  [[nodiscard]] std::vector<int> active_hosts() const;

 private:
  const topo::Cluster* cluster_;
};

}  // namespace hpn::workload
