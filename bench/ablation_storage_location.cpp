// §10 ablation — "The location of the storage cluster": frontend (the
// deployed design) vs backend (rejected). Backend placement offers far more
// raw bandwidth (3.2T vs 400G per host) but checkpoint storms then share
// the training fabric and jitter the job — plus storage eats backend ToR
// ports. We run a training job and fire a checkpoint storm mid-run under
// both placements.
#include "bench_common.h"
#include "train/training_job.h"
#include "topo/builders.h"
#include "workload/storage.h"

namespace {

using namespace hpn;

struct Outcome {
  double clean_sps = 0.0;
  double storm_sps = 0.0;
  double checkpoint_s = 0.0;
};

Outcome run(bool storage_on_backend) {
  auto cfg = topo::HpnConfig::tiny();
  cfg.segments_per_pod = 1;
  cfg.hosts_per_segment = 16;
  topo::Cluster c = topo::build_hpn(cfg);
  const auto storage = storage_on_backend ? topo::attach_backend_storage(c, 8)
                                          : topo::attach_frontend(c);

  sim::Simulator s;
  flowsim::FlowSession fs{c.topo, s};
  routing::Router r{c.topo};
  ccl::ConnectionManager cm{c, r};

  auto model = workload::llama_7b();
  model.compute_per_iteration = Duration::millis(400);
  const auto plan = workload::ParallelismPlanner{c}.plan(8, 1, 16);
  train::TrainingJob job{c, s, fs, cm, plan, model};
  workload::StorageTraffic st{c, fs, r};

  Outcome out;
  job.run_iterations(5);
  out.clean_sps = job.steady_samples_per_sec(3);

  // Checkpoint storm: all 16 hosts flush 8 x 30GB while training continues.
  bool storm_done = false;
  const TimePoint storm_start = s.now();
  st.checkpoint_write(plan.hosts, storage, DataSize::gigabytes(240),
                      [&] { storm_done = true; });
  int iters = 0;
  while (!storm_done || iters < 5) {
    job.run_iterations(1);
    ++iters;
    if (storm_done && iters >= 5) break;
    if (iters > 400) break;  // safety
  }
  out.storm_sps = job.throughput().mean_over(storm_start + Duration::nanos(1), s.now());
  // Drive any storage remainder to completion.
  while (!storm_done && s.step()) {
  }
  out.checkpoint_s = (s.now() - storm_start).as_seconds();
  return out;
}

}  // namespace

int main() {
  using namespace hpn;
  bench::banner("§10 ablation — storage cluster placement (frontend vs backend)",
                "backend placement has 8x the host bandwidth but checkpoint storms "
                "perturb training and storage consumes backend ToR ports; the paper "
                "keeps storage on the frontend");

  const Outcome frontend = run(/*storage_on_backend=*/false);
  const Outcome backend = run(/*storage_on_backend=*/true);

  metrics::Table t{"training under a 16-host checkpoint storm (240GB/host)"};
  t.columns({"storage placement", "clean_sps", "storm_sps", "training_impact",
             "checkpoint_write_s"});
  auto impact = [](const Outcome& o) {
    return metrics::Table::percent(1.0 - o.storm_sps / o.clean_sps, 1);
  };
  t.add_row({"frontend (deployed)", metrics::Table::num(frontend.clean_sps, 1),
             metrics::Table::num(frontend.storm_sps, 1), impact(frontend),
             metrics::Table::num(frontend.checkpoint_s, 1)});
  t.add_row({"backend (rejected)", metrics::Table::num(backend.clean_sps, 1),
             metrics::Table::num(backend.storm_sps, 1), impact(backend),
             metrics::Table::num(backend.checkpoint_s, 1)});
  bench::emit(t, "ablation_storage_location");

  std::cout << "\nfrontend placement isolates training ("
            << impact(frontend) << " impact) at the cost of slower checkpoints ("
            << metrics::Table::num(frontend.checkpoint_s / backend.checkpoint_s, 1)
            << "x longer than backend) — the §10 trade the paper accepts\n";
  return 0;
}
