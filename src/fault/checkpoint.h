// Checkpoint / failure economics (§2.3, Fig 4).
//
// Checkpoints are written every few hours (writing ~30GB per GPU costs
// ~100s, so customers stretch intervals to keep overhead near 5%); a crash
// rolls the job back to the last checkpoint and pays a restart. At ~$20K/h
// for a 3K-GPU task, one crash costs ~$30K.
#pragma once

#include "common/units.h"

namespace hpn::fault {

struct CheckpointPolicy {
  Duration interval = Duration::hours(3.0);
  Duration write_time = Duration::seconds(100.0);
  DataSize per_gpu = DataSize::gigabytes(30);
  /// Process restart + checkpoint reload + NCCL re-init after a crash.
  Duration restart_time = Duration::minutes(15.0);
  /// Also checkpoint once this many iterations ran since the last one
  /// (0 = by interval only).
  int every_iterations = 0;
};

struct CrashCost {
  Duration rolled_back;     ///< Training progress lost.
  Duration restart;         ///< Downtime to resume.
  double dollars = 0.0;     ///< At the paper's $20K/h-per-3K-GPU rate.
};

class CheckpointModel {
 public:
  explicit CheckpointModel(CheckpointPolicy policy = {}) : policy_{policy} {}

  /// Fraction of wall time spent writing checkpoints (~5% at 2-4h, §2.3).
  [[nodiscard]] double overhead_fraction() const;

  /// Cost of a crash at `since_last_checkpoint` of progress, for a job of
  /// `gpus` GPUs.
  [[nodiscard]] CrashCost crash_cost(Duration since_last_checkpoint, int gpus) const;

  /// Expected crash cost with crashes uniform within the interval.
  [[nodiscard]] CrashCost expected_crash_cost(int gpus) const {
    return crash_cost(policy_.interval / 2.0, gpus);
  }

  /// Effective training goodput: (1 - checkpoint overhead) x (1 - time lost
  /// to expected crashes at `crashes_per_month`).
  [[nodiscard]] double goodput_fraction(double crashes_per_month, int gpus) const;

  [[nodiscard]] const CheckpointPolicy& policy() const { return policy_; }

  /// The paper's rate: $20,000 per hour per 3,000 GPUs.
  static constexpr double kDollarsPerGpuHour = 20'000.0 / 3'000.0;

 private:
  CheckpointPolicy policy_;
};

}  // namespace hpn::fault
