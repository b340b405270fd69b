// Pluggable host-placement policies for the cluster scheduler.
//
// Placement is where topology meets the fleet: HPN's 1K-GPU segments exist
// so that most jobs fit inside one segment (§3/Fig 6), and rail-only-style
// analyses show locality decisions dominate large-scale cost. Three
// policies bracket the space:
//   * random       — uniform hosts from the global free pool; the baseline
//                    that scatters DP rings across segments and Pods.
//   * locality     — segment-affine: emptiest single segment that fits,
//                    else spill fullest-first.
//   * frag-min     — segment-affine best fit: tightest-fitting segment (min
//                    leftover), preserving large holes for future big jobs
//                    at the price of less headroom per placed job; spills
//                    like locality. The §3 job-locality bench
//                    (sec3_job_locality) replays the Fig 6 trace under it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "topo/cluster.h"

namespace hpn::cluster {

enum class Policy : std::uint8_t { kRandom, kLocalityAware, kFragMin };

std::string_view to_string(Policy policy);
/// Parses "random" | "locality" | "frag-min"; nullopt on anything else.
std::optional<Policy> policy_from_string(std::string_view name);
/// Comma-separated policy names for --help text.
std::string policy_names();

struct Allocation {
  /// Cluster host indexes in *ring order* (ranks are assigned in this
  /// order). Segment-affine policies emit ascending segment-contiguous
  /// blocks; kRandom keeps its scattered draw order — that scatter is the
  /// interference cost random placement pays.
  std::vector<int> hosts;
  int segments_spanned = 0;
};

/// Allocates whole hosts on a built cluster. Backup hosts (hot spares,
/// §5.1) are never schedulable. Deterministic: the same call sequence
/// produces the same allocations, including for kRandom (draws come from a
/// per-call stream salted with `job_id`, independent of wall history).
class PlacementEngine {
 public:
  PlacementEngine(const topo::Cluster& cluster, Policy policy, std::uint64_t seed);

  /// Allocate `hosts_needed` hosts for `job_id`; nullopt when the free pool
  /// is too small. Released allocations must pass back the exact host list.
  std::optional<Allocation> allocate(int job_id, int hosts_needed);
  void release(const std::vector<int>& hosts);

  [[nodiscard]] Policy policy() const { return policy_; }
  [[nodiscard]] int free_hosts() const;
  [[nodiscard]] int schedulable_hosts() const { return schedulable_; }
  /// Largest single-segment free block — the biggest job placeable without
  /// crossing a segment boundary right now.
  [[nodiscard]] int largest_free_block() const;
  /// External fragmentation in [0, 1]: 1 - largest_free_block/free_hosts
  /// (0 when the pool is empty or one segment holds all free hosts).
  [[nodiscard]] double fragmentation() const;

 private:
  struct Segment {
    int pod = 0;
    int segment = 0;
    std::vector<int> free;  ///< Free host indexes, ascending.
  };

  std::optional<Allocation> allocate_random(int job_id, int hosts_needed);
  std::optional<Allocation> allocate_segment_affine(int hosts_needed, bool tightest);
  /// Pass 2 shared by the segment-affine policies: spill fullest-first.
  std::optional<Allocation> spill(int hosts_needed);

  const topo::Cluster* cluster_;
  Policy policy_;
  std::uint64_t seed_;
  std::vector<Segment> segments_;
  int schedulable_ = 0;
};

}  // namespace hpn::cluster
