// Scheduler-equivalence battery: a cluster run is a pure function of its
// config, and the parallel_map aggregation is a pure function of the case
// list — so for every policy the per-job JCT CSV and the summary row must
// be BYTE-identical whether the sweep runs at --jobs 1, 4 or 8. This is
// the contract bench_cluster's CSV artifact rests on; it holds with fault
// injection armed too (the injector draws from the config seed, not from
// wall time or thread interleaving).
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster_sim.h"
#include "exec/parallel.h"

namespace hpn::cluster {
namespace {

ClusterConfig small_config(Policy policy, std::uint64_t seed, int faults) {
  ClusterConfig cfg;
  cfg.policy = policy;
  // 32 hosts keep each run fast; determinism does not need contention.
  cfg.scale = fabric::FabricScale{/*pods=*/1, /*segments_per_pod=*/4,
                                  /*hosts_per_segment=*/8, /*gpus_per_host=*/8};
  cfg.trace.seed = seed;
  cfg.trace.jobs = 10;
  cfg.trace.mean_interarrival = Duration::millis(200);
  cfg.trace.max_job_hosts = 8;
  cfg.faults = faults;
  return cfg;
}

struct Case {
  Policy policy;
  std::uint64_t seed;
  int faults;
};

std::vector<Case> case_list() {
  std::vector<Case> cases;
  for (const Policy p : {Policy::kLocalityAware, Policy::kRandom, Policy::kFragMin}) {
    cases.push_back({p, 2024, 0});
    cases.push_back({p, 7, 1});  // fault path must be deterministic too
  }
  return cases;
}

/// Everything byte-stable a run emits, concatenated in case order.
std::string sweep_bytes(int jobs) {
  const auto cases = case_list();
  const auto outs = exec::parallel_map(jobs, cases.size(), [&](std::size_t i) {
    const auto& c = cases[i];
    const ClusterReport r = run_cluster(small_config(c.policy, c.seed, c.faults));
    return r.jct_csv() + r.summary_csv_row();
  });
  std::string all;
  for (const auto& o : outs) all += o;
  return all;
}

TEST(SchedulerDeterminism, ByteIdenticalAcrossRunnerPoolJobs) {
  const std::string at1 = sweep_bytes(1);
  ASSERT_FALSE(at1.empty());
  for (const int jobs : {4, 8}) {
    EXPECT_EQ(sweep_bytes(jobs), at1) << "--jobs " << jobs << " diverged from --jobs 1";
  }
}

TEST(SchedulerDeterminism, RepeatedRunsAreByteIdentical) {
  const ClusterConfig cfg = small_config(Policy::kLocalityAware, 2024, 1);
  const ClusterReport a = run_cluster(cfg);
  const ClusterReport b = run_cluster(cfg);
  EXPECT_EQ(a.jct_csv(), b.jct_csv());
  EXPECT_EQ(a.summary_csv_row(), b.summary_csv_row());
}

TEST(SchedulerDeterminism, PoliciesActuallyDiverge) {
  // Guard against the battery passing vacuously because every policy
  // degenerated to the same placement.
  const ClusterReport loc =
      run_cluster(small_config(Policy::kLocalityAware, 2024, 0));
  const ClusterReport rnd = run_cluster(small_config(Policy::kRandom, 2024, 0));
  EXPECT_NE(loc.jct_csv(), rnd.jct_csv());
}

TEST(SchedulerDeterminism, EveryJobAccountedFor) {
  for (const Policy p : {Policy::kLocalityAware, Policy::kRandom, Policy::kFragMin}) {
    const ClusterReport r = run_cluster(small_config(p, 2024, 0));
    EXPECT_EQ(r.jobs.size(), 10u);
    for (const auto& j : r.jobs) {
      EXPECT_GE(j.start, j.arrival) << "job " << j.id;
      if (!j.aborted) {
        EXPECT_GE(j.finish, j.start) << "job " << j.id;
        EXPECT_GT(j.hosts, 0) << "job " << j.id;
      }
    }
  }
}

}  // namespace
}  // namespace hpn::cluster
