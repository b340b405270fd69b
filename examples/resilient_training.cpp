// Production-loop demo: a training job with periodic checkpoints written
// through the frontend storage cluster, surviving a failure storm — the
// §2.3 economics and §9.3 reliability story, end to end.
//
//   $ ./resilient_training
#include <iostream>

#include "ctrl/fabric_controller.h"
#include "fault/failure_injector.h"
#include "topo/builders.h"
#include "topo/frontend.h"
#include "train/checkpoint_loop.h"

namespace {

using namespace hpn;

train::ResilientReport run(bool dual_tor) {
  auto cfg = topo::HpnConfig::tiny();
  cfg.segments_per_pod = 1;
  cfg.hosts_per_segment = 16;
  cfg.dual_tor = dual_tor;
  topo::Cluster cluster = topo::build_hpn(cfg);
  const auto storage = topo::attach_frontend(cluster);

  sim::Simulator sim;
  flowsim::FlowSession session{cluster.topo, sim};
  routing::Router router{cluster.topo};
  ccl::ConnectionManager connections{cluster, router};
  ctrl::FabricController fabric{cluster, sim, router};

  // A short-interval checkpoint policy so the 2-minute demo shows several.
  fault::CheckpointPolicy policy;
  policy.interval = Duration::seconds(20.0);
  policy.write_time = Duration::seconds(2.0);
  policy.per_gpu = DataSize::gigabytes(2.0);
  policy.restart_time = Duration::seconds(5.0);

  auto model = workload::llama_7b();
  model.compute_per_iteration = Duration::millis(400);

  // Failure storm: hard failures with slow (90s) field repairs, injected in
  // the first minute — longer than the NCCL timeout, so single-ToR crashes.
  train::TrainOptions opts;
  opts.comm_timeout = Duration::seconds(10.0);
  sim.schedule_after(Duration::seconds(12.0), [&] { fabric.fail_access(2, 3, 0); });
  sim.schedule_after(Duration::seconds(102.0), [&] { fabric.repair_access(2, 3, 0); });

  const auto plan = workload::ParallelismPlanner{cluster}.plan(8, 1, 16);
  train::CheckpointLoop trainer{cluster, sim,   session, connections, router,
                                plan,    model, policy,  storage,     opts};
  // Steer in-flight traffic off failed ports as the controller reconverges.
  fabric.subscribe([&] {
    session.refresh();
    trainer.on_fabric_change();
  });
  return trainer.run_for(Duration::minutes(3.0));
}

void report(const char* label, const train::ResilientReport& r) {
  std::cout << label << ":\n"
            << "  iterations kept " << r.iterations_kept << ", lost " << r.iterations_lost
            << " | crashes " << r.crashes << " | checkpoints " << r.checkpoints << "\n"
            << "  checkpoint overhead " << to_string(r.checkpoint_overhead)
            << " | rolled back " << to_string(r.rolled_back) << " | restart downtime "
            << to_string(r.restart_downtime) << "\n"
            << "  goodput " << r.goodput() * 100.0 << "%\n";
}

}  // namespace

int main() {
  std::cout << "three simulated minutes of training (128 GPUs), checkpoints every "
               "20s, a hard link failure at t=12s repaired at t=102s\n\n";
  const auto single = run(false);
  report("single-ToR", single);
  std::cout << "\n";
  const auto dual = run(true);
  report("dual-ToR (HPN)", dual);
  std::cout << "\nthe §9.3 outcome: dual-ToR turns the crash-rollback-restart cycle "
               "into a transient degradation\n";
  return 0;
}
