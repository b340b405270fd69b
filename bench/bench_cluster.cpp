// Multi-tenant cluster mode (ROADMAP item 3): a Table-3 mixed fleet —
// Fig-6-sized training jobs plus §8 inference services — replayed on one
// shared HPN fabric under each placement policy. Reports utilization, JCT
// distribution, locality-vs-random interference and fragmentation over
// time. Sweep cases (policy x seed) run through bench::sweep; rows and CSV
// bytes are identical at any --jobs (pinned by tests/cluster).
#include "bench_common.h"
#include "cluster/cluster_sim.h"

namespace {

using namespace hpn;

struct Case {
  cluster::Policy policy;
  std::uint64_t seed;
};

cluster::ClusterConfig config_for(const Case& c, bool smoke, int faults) {
  cluster::ClusterConfig cfg;
  cfg.policy = c.policy;
  cfg.trace.seed = c.seed;
  cfg.trace.jobs = smoke ? 8 : 24;
  // Tight arrivals + multi-iteration jobs keep several tenants co-resident,
  // so segment-crossing collectives contend on the 2:1 ToR uplinks.
  cfg.trace.mean_interarrival = Duration::millis(smoke ? 150 : 100);
  cfg.trace.min_iterations = 4;
  cfg.trace.max_iterations = 10;
  // Fleet-shaped sizes: no job takes more than a quarter of the cluster, so
  // several tenants co-reside instead of serializing behind one giant job.
  cfg.trace.max_job_hosts = 32;
  cfg.faults = faults;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hpn;
  const bench::Args args = bench::Args::parse(argc, argv);

  bench::banner("multi-tenant cluster — placement policy head-to-head",
                "1K-GPU segments keep most jobs single-segment (§3/Fig 6); "
                "locality-aware placement avoids the Agg-uplink interference "
                "random placement pays in JCT");

  const std::vector<std::uint64_t> seeds =
      args.smoke ? std::vector<std::uint64_t>{2024} : std::vector<std::uint64_t>{2024, 7, 99};
  const std::vector<cluster::Policy> policies = {
      cluster::Policy::kLocalityAware, cluster::Policy::kRandom,
      cluster::Policy::kFragMin};

  std::vector<Case> cases;
  for (const auto policy : policies) {
    for (const auto seed : seeds) cases.push_back({policy, seed});
  }

  const int faults = args.smoke ? 0 : 2;
  const auto reports = bench::sweep(cases, args.jobs, [&](const Case& c) {
    return cluster::run_cluster(config_for(c, args.smoke, faults));
  });

  // Per-policy aggregate over seeds.
  metrics::Table t{"mixed fleet (training + inference), per policy"};
  t.columns({"policy", "train_mean_jct_s", "train_p99_jct_s", "mean_segments",
             "utilization", "mean_frag", "crashes", "infer_mean_jct_s"});
  for (const auto policy : policies) {
    double jct = 0.0, p99 = 0.0, segs = 0.0, util = 0.0, frag = 0.0, infer = 0.0;
    int crashes = 0, n = 0;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      if (cases[i].policy != policy) continue;
      const auto& r = reports[i];
      jct += r.mean_jct_s(cluster::JobKind::kTraining);
      p99 += r.quantile_jct_s(cluster::JobKind::kTraining, 0.99);
      segs += r.mean_segments(cluster::JobKind::kTraining);
      util += r.utilization;
      frag += r.mean_fragmentation;
      infer += r.mean_jct_s(cluster::JobKind::kInference);
      crashes += r.crashes;
      ++n;
    }
    const double d = static_cast<double>(n);
    t.add_row({std::string{cluster::to_string(policy)}, metrics::Table::num(jct / d, 3),
               metrics::Table::num(p99 / d, 3), metrics::Table::num(segs / d, 2),
               metrics::Table::percent(util / d, 1), metrics::Table::num(frag / d, 3),
               std::to_string(crashes), metrics::Table::num(infer / d, 3)});
  }
  t.print(std::cout);

  // Algorithm 1's work per case: a slot stops tracing source ports once its
  // best candidate reaches the lowest score any shortest path could.
  metrics::Table planner{"connection planner (Algorithm 1), per case"};
  planner.columns({"policy", "seed", "pairs_planned", "slots", "traces", "stopped_at_bound",
                   "traces_skipped"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const ccl::ConnectionManager::Stats& st = reports[i].planner;
    planner.add_row({std::string{cluster::to_string(cases[i].policy)},
                     std::to_string(cases[i].seed), std::to_string(st.pairs_planned),
                     std::to_string(st.slots), std::to_string(st.traces),
                     std::to_string(st.stopped_at_bound), std::to_string(st.traces_skipped)});
  }
  planner.print(std::cout);

  // The shared flow engine's work per case: each recompute re-rates the
  // conflict components its changes touched, one-flow components in closed
  // form; `lookups` counts connection-set lookups (ccl looks each ring edge
  // up once per communicator, other messages once each). Counts, not
  // times: identical at any --jobs.
  metrics::Table engine{"flow engine work, per case"};
  engine.columns({"policy", "seed", "recomputes", "completions", "heap_updates", "resolves",
                  "flows_rerated", "components", "closed_form", "lookups"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const flowsim::FlowSession::Stats& ss = reports[i].session;
    const flowsim::IncrementalMaxMin::Stats& ms = reports[i].solver;
    engine.add_row({std::string{cluster::to_string(cases[i].policy)},
                    std::to_string(cases[i].seed), std::to_string(ss.recomputes),
                    std::to_string(ss.completions), std::to_string(ss.heap_updates),
                    std::to_string(ms.resolves), std::to_string(ms.flows_rerated),
                    std::to_string(ms.components), std::to_string(ms.closed_form),
                    std::to_string(reports[i].planner.lookups)});
  }
  engine.print(std::cout);

  // The tier-1 artifact: one summary row per (policy, seed) case.
  metrics::Table csv{"bench_cluster"};
  csv.columns({"policy", "seed", "jobs", "utilization", "mean_fragmentation", "crashes",
               "crash_cost_dollars", "train_mean_jct_s", "train_p50_jct_s",
               "train_p99_jct_s", "train_mean_segments", "infer_mean_jct_s",
               "makespan_s"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& r = reports[i];
    std::string row = r.summary_csv_row();
    if (!row.empty() && row.back() == '\n') row.pop_back();
    std::vector<std::string> cells;
    std::size_t from = 0;
    while (from <= row.size()) {
      const std::size_t comma = row.find(',', from);
      if (comma == std::string::npos) {
        cells.push_back(row.substr(from));
        break;
      }
      cells.push_back(row.substr(from, comma - from));
      from = comma + 1;
    }
    csv.add_row(std::move(cells));
  }
  bench::emit(csv, "bench_cluster");

  const auto mean_for = [&](cluster::Policy policy) {
    double jct = 0.0;
    int n = 0;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      if (cases[i].policy != policy) continue;
      jct += reports[i].mean_jct_s(cluster::JobKind::kTraining);
      ++n;
    }
    return jct / static_cast<double>(n);
  };
  const double locality = mean_for(cluster::Policy::kLocalityAware);
  const double random = mean_for(cluster::Policy::kRandom);
  std::cout << "\nlocality-aware vs random mean training JCT: " << metrics::Table::num(locality, 3)
            << "s vs " << metrics::Table::num(random, 3) << "s ("
            << metrics::Table::percent(random / locality - 1.0, 1)
            << " longer under random placement)\n";
  return locality < random ? 0 : 1;
}
