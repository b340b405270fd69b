// Architecture zoo: every registered fabric strategy raced head-to-head on
// the same Table-3 style workload (TP on NVLink, PP across stages, DP
// per-rail Multi-AllReduce) and the Fig-18 fault schedule (access link
// fails mid-run, repaired 5 s later). One row per fabric:
//   * scale actually built (GPUs, hosts, switches),
//   * cost proxy (Table-1 style: cables, optics units, OCS circuit ports),
//   * steady iteration time / samples per second,
//   * failover: throughput during the failure episode, the longest stall,
//     and throughput after repair,
//   * structural blast radius of the worst ToR loss.
// Reconfigurable fabrics (railx-lite) rotate their circuit tier on the
// strategy's own schedule for the whole run, so the iteration time already
// includes rotor epoch churn.
#include <algorithm>
#include <functional>

#include "bench_common.h"
#include "fabric/fabric.h"
#include "topo/blast_radius.h"
#include "topo/validate.h"
#include "train/training_job.h"

namespace {

using namespace hpn;

struct ZooCase {
  const fabric::Fabric* fab = nullptr;
  fabric::FabricScale scale;
};

struct ZooRow {
  int gpus = 0;
  int hosts = 0;
  fabric::CostProxy cost;
  double iter_s = 0.0;         ///< Steady-state seconds per iteration.
  double baseline_sps = 0.0;   ///< samples/s before the fault.
  double during_sps = 0.0;     ///< samples/s while the link is down.
  double after_sps = 0.0;      ///< samples/s after repair (0 = crashed).
  double stall_s = 0.0;        ///< Longest iteration stretch of the episode.
  bool crashed = false;
  topo::BlastRadius tor_loss;  ///< Worst single-ToR failure, structurally.
};

workload::ModelPreset zoo_model() {
  workload::ModelPreset m = workload::llama_7b();
  m.compute_per_iteration = Duration::seconds(0.25);
  return m;
}

/// Stage/replica split: PP=2 once there are enough hosts for two stages,
/// DP = the rest. Every fabric runs all three Table-3 traffic flavors.
void split_stages(int hosts, int& pp, int& dp) {
  pp = hosts >= 4 ? 2 : 1;
  dp = hosts / pp;
}

ZooRow run_fabric(const ZooCase& zc, bool smoke) {
  topo::Cluster cluster = zc.fab->build(zc.scale);
  topo::validate_or_throw(cluster);

  ZooRow row;
  row.hosts = static_cast<int>(cluster.hosts.size());
  row.gpus = cluster.gpu_count();
  row.cost = fabric::cost_proxy(cluster);
  row.tor_loss = topo::worst_blast_radius(cluster, topo::NodeKind::kTor);

  sim::Simulator sim;
  sim.tracer().enable();  // Iteration-end spans feed the stall metric.
  flowsim::FlowSession session{cluster.topo, sim};
  routing::Router router{cluster.topo, zc.fab->hash_policy()};
  ccl::ConnectionManager conns{cluster, router};
  ctrl::FabricController fabric_ctl{cluster, sim, router};

  int pp = 1, dp = 1;
  split_stages(row.hosts, pp, dp);
  const auto plan =
      workload::ParallelismPlanner{cluster}.plan(cluster.gpus_per_host, pp, dp);
  train::TrainOptions opts;
  opts.comm_timeout = Duration::seconds(120.0);
  opts.ccl.pipeline_chunks = 2;
  train::TrainingJob job{cluster, sim, session, conns, plan, zoo_model(), opts};

  // Reconfigurable fabrics rotate for the entire run: epoch flips are
  // topology mutations, so the router re-converges and in-flight traffic
  // fails over exactly as it would on a real OCS dwell boundary.
  const Duration reconfig_period = zc.fab->reconfig_period();
  int epoch = 0;
  std::function<void()> rotate = [&] {
    fabric::apply_epoch(cluster, ++epoch);
    router.invalidate();
    job.on_fabric_change();
    sim.schedule_after(reconfig_period, rotate);
  };
  if (reconfig_period > Duration::zero() && !cluster.circuits.empty()) {
    sim.schedule_after(reconfig_period, rotate);
  }

  const int warm = smoke ? 4 : 10;
  job.run_iterations(warm);
  row.baseline_sps = job.steady_samples_per_sec(smoke ? 2 : 5);
  row.iter_s = row.baseline_sps > 0.0
                   ? static_cast<double>(plan.world_size()) *
                         zoo_model().samples_per_iteration_per_gpu / row.baseline_sps
                   : 0.0;

  // Fig-18 schedule: fail host0/rail0/port0, repair 5 s later. Dual-homed
  // fabrics degrade; single-homed ones stall until the repair lands.
  const Duration repair_after = Duration::seconds(smoke ? 2.0 : 5.0);
  fabric_ctl.fail_access(plan.hosts[0], 0, 0);
  job.on_fabric_change();
  sim.schedule_after(repair_after, [&] {
    fabric_ctl.repair_access(plan.hosts[0], 0, 0);
    job.on_fabric_change();
  });
  const TimePoint fail_at = sim.now();
  const int episode_iters =
      static_cast<int>(repair_after.as_seconds() / std::max(0.05, row.iter_s)) + 3;
  job.run_iterations(episode_iters);
  row.crashed = job.state() == train::JobState::kCrashed;
  if (row.crashed) {
    row.stall_s = (sim.now() - fail_at).as_seconds();
    return row;
  }
  row.during_sps =
      job.throughput().mean_over(fail_at + Duration::nanos(1), fail_at + repair_after);
  TimePoint prev = fail_at;
  for (const auto& ev : sim.tracer().events_of(metrics::TraceEventKind::kIterationEnd)) {
    if (ev.at <= fail_at) {
      prev = ev.at;
      continue;
    }
    row.stall_s = std::max(row.stall_s, (ev.at - prev).as_seconds());
    prev = ev.at;
  }
  job.run_iterations(smoke ? 2 : 5);
  row.after_sps =
      job.state() == train::JobState::kRunning ? job.steady_samples_per_sec(2) : 0.0;
  row.crashed = job.state() == train::JobState::kCrashed;
  return row;
}

std::string fmt(double v, int digits = 1) { return hpn::metrics::Table::num(v, digits); }

}  // namespace

int main(int argc, char** argv) {
  using namespace hpn;
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::banner(
      "Architecture zoo — every fabric strategy on one workload + fault drill",
      "HPN's dual-ToR dual-plane design holds throughput through an access-link "
      "failure; single-homed fabrics stall until repair; the zoo quantifies each "
      "architecture's cost proxy and blast radius on the same footing");

  // Roughly comparable scales (~64 GPUs where the geometry allows): the
  // builders quantize differently (fat tree is k-ary with single-GPU hosts,
  // railx-lite wants an odd group count so every rotor epoch stays
  // connected), so the table reports the scale actually built.
  std::vector<ZooCase> cases;
  for (const fabric::Fabric* f : fabric::all_fabrics()) {
    ZooCase zc;
    zc.fab = f;
    zc.scale.segments_per_pod = f->name() == "railx-lite" ? 5 : 4;
    zc.scale.hosts_per_segment = 2;
    zc.scale.gpus_per_host = 8;
    cases.push_back(zc);
  }

  const std::vector<ZooRow> rows =
      bench::sweep(cases, args.jobs, [&](const ZooCase& zc) { return run_fabric(zc, args.smoke); });

  metrics::Table t{"fabric head-to-head (Table-3 workload + Fig-18 fault schedule)"};
  t.columns({"fabric", "gpus", "switches", "optics", "circuit_ports", "iter_s",
             "baseline_sps", "during_fail_sps", "after_sps", "stall_s",
             "tor_loss_isolated", "tor_loss_degraded"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const ZooRow& r = rows[i];
    t.add_row({std::string{cases[i].fab->name()}, std::to_string(r.gpus),
               std::to_string(r.cost.switches), std::to_string(r.cost.optics_units()),
               std::to_string(r.cost.circuit_ports), fmt(r.iter_s, 2),
               fmt(r.baseline_sps), r.crashed ? "0.0 (crashed)" : fmt(r.during_sps),
               r.crashed ? "-" : fmt(r.after_sps), fmt(r.stall_s, 2),
               std::to_string(r.tor_loss.isolated_hosts),
               std::to_string(r.tor_loss.degraded_hosts)});
  }
  bench::emit(t, "bench_architectures");

  // The §2.3 headline, across the whole zoo: dual-homed access keeps ToR
  // loss a degradation, single-homed access makes it an outage.
  for (std::size_t i = 0; i < cases.size(); ++i) {
    std::cout << cases[i].fab->name() << ": worst ToR loss -> "
              << rows[i].tor_loss.isolated_hosts << " isolated, "
              << rows[i].tor_loss.degraded_hosts << " degraded ("
              << metrics::Table::percent(rows[i].tor_loss.bandwidth_lost_fraction, 1)
              << " access bandwidth)\n";
  }
  return 0;
}
