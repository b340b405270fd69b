// A Mixtral-class sparse model preset: light dense gradients, heavy expert
// all-to-all — the workload that rules out rail-only tier2 (§10). The
// training-job tests run it to cover the all-to-all phase of an iteration;
// the paper benches build their MoE traffic themselves.
#pragma once

#include "workload/parallelism.h"

namespace hpn::workload::testsupport {

inline ModelPreset moe_8x7b() {
  return ModelPreset{
      .name = "MoE-8x7B",
      .traffic =
          IterationTraffic{
              .dp_all_reduce = DataSize::megabytes(300),
              .pp_send = DataSize::megabytes(6),
              .tp_all_reduce = DataSize::megabytes(120),
              .moe_all_to_all = DataSize::megabytes(256),
          },
      .compute_per_iteration = Duration::seconds(0.8),
      .samples_per_iteration_per_gpu = 1,
      .dp_rounds_per_iteration = 8,
  };
}

}  // namespace hpn::workload::testsupport
