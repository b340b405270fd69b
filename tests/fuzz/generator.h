// The fuzz generator and shrinker over scenario/scenario.h's format: draw a
// random scenario from a seed, arm its jobsmix phase, and propose strictly
// smaller candidates for the greedy shrinker. Only the fuzz harness, its
// tests and hpnsim_fuzz use these; a run parses, materializes and replays
// scenarios without them.
#pragma once

#include <cstdint>
#include <vector>

#include "scenario/scenario.h"

namespace hpn::fuzz {

/// Draw a random scenario from a seed (topology kind, workload, faults).
Scenario random_scenario(std::uint64_t seed);

/// Deterministically add a job mix drawn from `scenario.seed` (no-op when
/// jobs are already present). `hpnsim_fuzz --jobsmix` applies this to every
/// drawn scenario so the whole sweep exercises the cluster scheduler.
void ensure_jobs(Scenario& scenario);

/// Greedy shrink candidates, most aggressive first: drop flow/fault
/// subsets, halve sizes, shrink the topology, and cross-kind simplification
/// toward kTinyClos. Every candidate is strictly "smaller" than the input,
/// so repeated shrinking terminates.
std::vector<Scenario> shrink_candidates(const Scenario& scenario);

/// Total ordering used by the shrinker to define "smaller".
std::uint64_t scenario_weight(const Scenario& scenario);

}  // namespace hpn::fuzz
