// Golden-pinned canonical cluster run: the 16-job HPN mixed fleet at the
// default scale, locality policy, one fault — its per-job JCT CSV and
// summary row are checked in under tests/support/golden/ and must match
// byte-for-byte. This pins the *numbers* (placement decisions, collective
// timings, fault/restart economics) across refactors of any layer below.
//
// Regenerating after an intentional change:
//   HPN_UPDATE_GOLDEN=1 ./test_cluster
// On mismatch the observed CSV is written next to the golden as
// <name>.actual (CI uploads these as artifacts).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "cluster/cluster_sim.h"

#ifndef HPN_GOLDEN_DIR
#error "HPN_GOLDEN_DIR must point at tests/support/golden"
#endif

namespace hpn::cluster {
namespace {

void check_golden(const std::string& name, const std::string& actual) {
  const std::string path = std::string{HPN_GOLDEN_DIR} + "/" + name;
  if (std::getenv("HPN_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out{path};
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
    out << actual;
    std::printf("updated golden %s (%zu bytes)\n", path.c_str(), actual.size());
    return;
  }
  std::ifstream in{path};
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " — regenerate with HPN_UPDATE_GOLDEN=1 ./test_cluster";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string expected = buf.str();
  if (actual != expected) {
    const std::string actual_path = path + ".actual";
    std::ofstream out{actual_path};
    out << actual;
    FAIL() << "golden mismatch: " << path << " (observed written to " << actual_path
           << "; regenerate with HPN_UPDATE_GOLDEN=1 ./test_cluster if intended)";
  }
}

/// Column names of ClusterReport::summary_csv_row.
constexpr const char* kSummaryCsvHeader =
    "policy,seed,jobs,utilization,mean_fragmentation,crashes,crash_cost_dollars,"
    "train_mean_jct_s,train_p50_jct_s,train_p99_jct_s,train_mean_segments,"
    "infer_mean_jct_s,makespan_s\n";

TEST(ClusterGolden, CanonicalHpn16Jobs) {
  ClusterConfig cfg;  // default scale: 4 segments x 32 hosts, 2:1 uplinks
  cfg.policy = Policy::kLocalityAware;
  cfg.trace.seed = 2024;
  cfg.trace.jobs = 16;
  cfg.trace.mean_interarrival = Duration::millis(200);
  cfg.trace.max_job_hosts = 32;
  cfg.faults = 1;
  const ClusterReport r = run_cluster(cfg);
  check_golden("cluster_hpn_16jobs.csv", kSummaryCsvHeader + r.summary_csv_row() + r.jct_csv());
}

}  // namespace
}  // namespace hpn::cluster
