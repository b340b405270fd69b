// A blocking checkpoint write: starts StorageTraffic::checkpoint_write and
// steps the simulator until it completes. The runs write checkpoints
// asynchronously (train::CheckpointLoop); the storage tests and the
// blocking resilient-trainer oracle wait for one.
#pragma once

#include <vector>

#include "common/check.h"
#include "sim/simulator.h"
#include "workload/storage.h"

namespace hpn::workload::testsupport {

/// Writes `per_host` from each of `hosts` to `storage`; returns the elapsed
/// simulated time.
inline Duration run_checkpoint_write(sim::Simulator& sim, StorageTraffic& traffic,
                                     const std::vector<int>& hosts,
                                     const std::vector<topo::StorageHost>& storage,
                                     DataSize per_host) {
  const TimePoint start = sim.now();
  bool finished = false;
  traffic.checkpoint_write(hosts, storage, per_host, [&finished] { finished = true; });
  while (!finished && sim.step()) {
  }
  HPN_CHECK(finished);
  return sim.now() - start;
}

}  // namespace hpn::workload::testsupport
