// §3 / Fig 6 consequence — job locality: with 1,024-GPU segments, "about
// 96.3% of in-production LLM training jobs ... can be put in one segment,
// achieving the utmost network performance". Replay the Fig 6 job-size
// distribution through the segment-aware (best-fit) placement engine on
// HPN-shaped vs DCN+-shaped segments.
#include "bench_common.h"
#include "cluster/placement.h"
#include "topo/builders.h"
#include "workload/traffic.h"

namespace {

using namespace hpn;

struct LocalityResult {
  int placed = 0;
  int single_segment = 0;
  double avg_segments = 0.0;
};

LocalityResult replay(int hosts_per_segment, int segments, int num_jobs) {
  auto cfg = topo::HpnConfig::tiny();
  cfg.hosts_per_segment = hosts_per_segment;
  cfg.segments_per_pod = segments;
  cfg.tor_uplinks = 4;
  cfg.aggs_per_plane = 4;
  const topo::Cluster c = topo::build_hpn(cfg);
  cluster::PlacementEngine engine{c, cluster::Policy::kFragMin, /*seed=*/0};
  workload::JobSizeModel sizes{2024};  // identical trace for both shapes

  LocalityResult res;
  double seg_sum = 0.0;
  std::vector<std::vector<int>> running;
  for (int i = 0; i < num_jobs; ++i) {
    const int gpus = sizes.sample_gpus();
    const int hosts = (gpus + c.gpus_per_host - 1) / c.gpus_per_host;
    auto p = engine.allocate(i, hosts);
    if (!p.has_value()) {
      for (const auto& held : running) engine.release(held);
      running.clear();
      p = engine.allocate(i, hosts);
      if (!p.has_value()) continue;
    }
    running.push_back(std::move(p->hosts));
    ++res.placed;
    res.single_segment += p->segments_spanned == 1;
    seg_sum += p->segments_spanned;
  }
  res.avg_segments = seg_sum / res.placed;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hpn;
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::banner("§3 / Fig 6 — job locality from segment size",
                "HPN's 1K-GPU segments keep 96.3% of production jobs inside a single "
                "segment (one switch hop); DCN+'s 128-GPU segments cannot");

  // Both shapes expose 4096 active GPUs total; each shape replays the same
  // seeded trace independently, so the two rows parallelise across --jobs.
  const int num_jobs = args.smoke ? 100 : 1'000;
  struct Shape {
    const char* label;
    int hosts, segments;
  };
  const std::vector<Shape> shapes = {{"HPN: 1024 GPUs", 128, 4},
                                     {"DCN+: 128 GPUs", 16, 32}};
  const auto results = bench::sweep(shapes, args.jobs, [&](const Shape& sh) {
    return replay(sh.hosts, sh.segments, num_jobs);
  });
  const LocalityResult& hpn = results[0];
  const LocalityResult& dcn = results[1];

  metrics::Table t{std::to_string(num_jobs) +
                   "-job production trace (Fig 6 size distribution)"};
  t.columns({"segment size", "jobs_placed", "single_segment_fraction", "avg_segments_per_job"});
  t.add_row({shapes[0].label, std::to_string(hpn.placed),
             metrics::Table::percent(static_cast<double>(hpn.single_segment) / hpn.placed, 1),
             metrics::Table::num(hpn.avg_segments, 2)});
  t.add_row({shapes[1].label, std::to_string(dcn.placed),
             metrics::Table::percent(static_cast<double>(dcn.single_segment) / dcn.placed, 1),
             metrics::Table::num(dcn.avg_segments, 2)});
  bench::emit(t, "sec3_job_locality");

  std::cout << "\npaper: 96.3% of jobs < 1K GPUs -> single-segment on HPN; the Fig 15 "
               "job needed 19 DCN+ segments but only 3 HPN segments\n";
  return 0;
}
