// hpnsim — command-line front door to the library.
//
//   hpnsim build   [--arch hpn|dcn|fattree] [--segments N] [--hosts N]
//                  [--pods N] [--no-dual-tor] [--no-dual-plane] [--rail-only]
//   hpnsim build   --fabric <name>          any registered fabric strategy
//                  (hpn|dcn+|fat-tree|rail-only|railx-lite|ubmesh-lite),
//                  built through the strategy registry with its own hash
//                  policy; --segments/--hosts/--pods scale it
//   hpnsim trace   <src_rank> <dst_rank> [--sport P] (same build flags)
//   hpnsim probe   <src_rank> <dst_rank>   INT probe + blueprint check
//   hpnsim scale                           Table 2 / Table 4 arithmetic
//   hpnsim failover [--trace out.json]     dual-ToR failover drill, exports
//                                          the simulation-wide event trace
//   hpnsim sweep   [--jobs N]              dual-ToR x repair-time failover
//                                          grid (independent sims on N
//                                          threads; table is identical at
//                                          any --jobs)
//   hpnsim cluster [--policy random|locality|frag-min] [--seed S]
//                  [--jobs-count N] [--faults N] [--trace out.json]
//                                          multi-tenant cluster mode: replay
//                                          a seeded job-arrival trace (mixed
//                                          training + inference) on one
//                                          shared fabric under a placement
//                                          policy; prints per-job JCTs and
//                                          the run summary (same build
//                                          flags scale the fabric)
//   hpnsim serve   [--jobs N] [--cache-mb N] [--max-bases N]
//                  [--max-query-kb N]       capacity-planning query daemon on
//                                          stdin/stdout (wrap with socat/nc
//                                          for a socket); see README "Query
//                                          service" for the protocol
//
// Argument parsing is strict: unknown flags, unexpected positional
// arguments, missing/malformed flag values, and `--trace`/`--jobs` on a
// command that does not read them print usage and exit 2 — they are never
// silently ignored.
//
// `--trace <path>` works on `failover` and `cluster`; a `.json` suffix
// selects Chrome trace_event format (open in chrome://tracing or
// https://ui.perfetto.dev), anything else writes CSV.
//
// Examples:
//   hpnsim build --arch hpn --segments 15 --hosts 128       # the paper Pod
//   hpnsim trace 0 1024 --sport 4242
//   hpnsim failover --trace failover.json
//   hpnsim sweep --jobs 4
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "cluster/cluster_sim.h"
#include "ctrl/fabric_controller.h"
#include "exec/parallel.h"
#include "fabric/fabric.h"
#include "metrics/table.h"
#include "routing/int_probe.h"
#include "routing/router.h"
#include "serve/serve.h"
#include "topo/builders.h"
#include "topo/scale.h"
#include "topo/validate.h"
#include "train/training_job.h"

namespace {

using namespace hpn;

struct Options {
  std::string command;
  std::string arch = "hpn";
  std::string fabric;  // Non-empty: build through the strategy registry.
  int segments = 2;
  int hosts = 4;
  int pods = 1;
  bool dual_tor = true;
  bool dual_plane = true;
  bool rail_only = false;
  int src = 0;
  int dst = 8;
  std::uint16_t sport = 4242;
  std::string trace_path;
  int jobs = 1;
  // `cluster` command. Scale flags override the ClusterConfig defaults only
  // when explicitly passed.
  std::string policy = "locality";
  std::uint64_t seed = 2024;
  int jobs_count = 16;
  int faults = 0;
  bool segments_set = false;
  bool hosts_set = false;
  bool pods_set = false;
  // `serve` command.
  int cache_mb = 64;
  int max_bases = 8;
  int max_query_kb = 1024;
};

void usage() {
  std::cout << "usage: hpnsim <build|trace|probe|scale|failover|sweep|cluster|serve>"
               " [options]\n"
            << "  --arch hpn|dcn|fattree   architecture (default hpn)\n"
            << "  --fabric <name>          fabric strategy from the registry:\n"
            << "                           " << fabric::fabric_names() << "\n"
            << "  --segments N --hosts N --pods N\n"
            << "  --no-dual-tor --no-dual-plane --rail-only\n"
            << "  --trace <path>           failover/cluster: export the event trace\n"
            << "                           (.json = Chrome trace_event, else CSV)\n"
            << "  --jobs N                 threads for `sweep` (output\n"
            << "                           is identical at any job count)\n"
            << "  trace/probe: <src_rank> <dst_rank> [--sport P]\n"
            << "  cluster: --policy random|locality|frag-min  placement policy\n"
            << "           --seed S --jobs-count N --faults N  trace knobs\n"
            << "  serve:   --jobs N         query-batch workers (replies are\n"
            << "                            byte-identical at any N)\n"
            << "           --cache-mb N     result-cache memory cap (default 64)\n"
            << "           --max-bases N    warm base scenarios kept (default 8)\n"
            << "           --max-query-kb N inline scenario size cap (default 1024)\n";
}

/// Usage errors (unknown flag, junk value, stray positional) throw
/// ConfigError; main() prints the message plus usage and exits 2 — a typo
/// must never silently run a different experiment than the one asked for.
Options parse(int argc, char** argv) {
  Options o;
  if (argc < 2) {
    usage();
    std::exit(2);
  }
  o.command = argv[1];
  // trace/probe take exactly two positional ranks; no other command takes
  // positional arguments at all.
  const bool takes_ranks = o.command == "trace" || o.command == "probe";
  const bool takes_trace = o.command == "failover" || o.command == "cluster";
  const bool takes_jobs = o.command == "sweep" || o.command == "serve";
  int positional = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next_str = [&]() -> std::string {
      if (i + 1 >= argc) throw ConfigError{"missing value for " + a};
      return argv[++i];
    };
    auto parse_int = [&](const std::string& text) {
      std::size_t used = 0;
      int v = 0;
      try {
        v = std::stoi(text, &used);
      } catch (const std::exception&) {
        throw ConfigError{a + " wants an integer, got '" + text + "'"};
      }
      if (used != text.size()) {
        throw ConfigError{a + " wants an integer, got '" + text + "'"};
      }
      return v;
    };
    auto next_int = [&](int& out) { out = parse_int(next_str()); };
    if (a == "--arch") {
      o.arch = next_str();
    } else if (a == "--fabric") {
      o.fabric = next_str();
    } else if (a == "--segments") {
      next_int(o.segments);
      o.segments_set = true;
    } else if (a == "--hosts") {
      next_int(o.hosts);
      o.hosts_set = true;
    } else if (a == "--pods") {
      next_int(o.pods);
      o.pods_set = true;
    } else if (a == "--policy") {
      o.policy = next_str();
    } else if (a == "--seed") {
      int v = 0;
      next_int(v);
      o.seed = static_cast<std::uint64_t>(v);
    } else if (a == "--jobs-count") {
      next_int(o.jobs_count);
      if (o.jobs_count < 1) throw ConfigError{"--jobs-count must be >= 1"};
    } else if (a == "--faults") {
      next_int(o.faults);
      if (o.faults < 0) o.faults = 0;
    } else if (a == "--no-dual-tor") {
      o.dual_tor = false;
    } else if (a == "--no-dual-plane") {
      o.dual_plane = false;
    } else if (a == "--rail-only") {
      o.rail_only = true;
    } else if (a == "--sport") {
      int v = 0;
      next_int(v);
      o.sport = static_cast<std::uint16_t>(v);
    } else if ((a == "--trace" && !takes_trace) || (a == "--jobs" && !takes_jobs)) {
      throw ConfigError{a + " does nothing for '" + o.command + "'"};
    } else if (a == "--trace") {
      o.trace_path = next_str();
    } else if (a == "--jobs") {
      next_int(o.jobs);
      if (o.jobs < 1) throw ConfigError{"--jobs must be >= 1"};
    } else if (a == "--cache-mb") {
      next_int(o.cache_mb);
      if (o.cache_mb < 1) throw ConfigError{"--cache-mb must be >= 1"};
    } else if (a == "--max-bases") {
      next_int(o.max_bases);
      if (o.max_bases < 1) throw ConfigError{"--max-bases must be >= 1"};
    } else if (a == "--max-query-kb") {
      next_int(o.max_query_kb);
      if (o.max_query_kb < 1) throw ConfigError{"--max-query-kb must be >= 1"};
    } else if (!a.empty() && a[0] != '-') {
      if (!takes_ranks || positional >= 2) {
        throw ConfigError{"unexpected argument '" + a + "'"};
      }
      (positional++ == 0 ? o.src : o.dst) = parse_int(a);
    } else {
      throw ConfigError{"unknown flag '" + a + "'"};
    }
  }
  return o;
}

int cmd_serve(const Options& o) {
  serve::ServeOptions opts;
  opts.engine.jobs = o.jobs;
  opts.engine.cache_bytes = static_cast<std::size_t>(o.cache_mb) << 20;
  opts.engine.max_bases = static_cast<std::size_t>(o.max_bases);
  opts.max_query_bytes = static_cast<std::size_t>(o.max_query_kb) << 10;
  return serve::serve_loop(std::cin, std::cout, opts);
}

topo::Cluster build_cluster(const Options& o) {
  if (!o.fabric.empty()) {
    // Strategy path: any registered fabric, scaled by the shared knobs.
    fabric::FabricScale scale;
    scale.pods = o.pods;
    scale.segments_per_pod = o.segments;
    scale.hosts_per_segment = o.hosts;
    return fabric::fabric_or_throw(o.fabric).build(scale);
  }
  if (o.arch == "hpn") {
    auto cfg = topo::HpnConfig::tiny();
    cfg.segments_per_pod = o.segments;
    cfg.hosts_per_segment = o.hosts;
    cfg.pods = o.pods;
    cfg.dual_tor = o.dual_tor;
    cfg.dual_plane = o.dual_plane && o.dual_tor;
    cfg.rail_only_tier2 = o.rail_only;
    if (o.hosts >= 64) {  // paper-scale knobs
      cfg.tor_uplinks = 60;
      cfg.aggs_per_plane = 60;
      cfg.backup_hosts_per_segment = 8;
    }
    return topo::build_hpn(cfg);
  }
  if (o.arch == "dcn") {
    topo::DcnPlusConfig cfg;
    cfg.segments_per_pod = o.segments;
    cfg.hosts_per_segment = o.hosts;
    cfg.pods = o.pods;
    return topo::build_dcn_plus(cfg);
  }
  if (o.arch == "fattree") {
    return topo::build_fat_tree(topo::FatTreeConfig{.k = std::max(4, o.hosts)});
  }
  throw ConfigError{"unknown arch: " + o.arch};
}

/// The ECMP hash policy the chosen architecture is operated with: the
/// strategy's own policy under --fabric, the stack default otherwise.
routing::HashConfig hash_policy(const Options& o) {
  if (!o.fabric.empty()) return fabric::fabric_or_throw(o.fabric).hash_policy();
  return {};
}

int cmd_build(const Options& o) {
  const topo::Cluster c = build_cluster(o);
  int active = 0;
  for (const auto& h : c.hosts) active += h.backup ? 0 : static_cast<int>(h.gpus.size());
  std::cout << to_string(c.arch) << ": " << active << " active GPUs, " << c.hosts.size()
            << " hosts, " << c.tors.size() << " ToRs, " << c.aggs.size() << " Aggs, "
            << c.cores.size() << " Cores\n"
            << "graph: " << c.topo.node_count() << " nodes, " << c.topo.link_count()
            << " unidirectional links\n";
  const auto violations = topo::validate(c);
  if (violations.empty()) {
    std::cout << "wiring: OK (blueprint-conformant)\n";
    return 0;
  }
  std::cout << "wiring: " << violations.size() << " violations\n";
  for (const auto& v : violations) std::cout << "  " << v << "\n";
  return 2;
}

int cmd_trace(const Options& o, bool probe) {
  const topo::Cluster c = build_cluster(o);
  routing::Router r{c.topo, hash_policy(o)};
  if (o.src >= c.gpu_count() || o.dst >= c.gpu_count()) {
    std::cerr << "rank out of range (cluster has " << c.gpu_count() << " GPUs)\n";
    return 1;
  }
  const auto& src_att = c.nic_of(o.src);
  const NodeId dst = c.nic_of(o.dst).nic;
  const routing::FiveTuple ft{.src_ip = src_att.nic.value(),
                              .dst_ip = dst.value(),
                              .src_port = o.sport};
  const routing::Path p = r.trace(src_att.nic, dst, ft);
  if (!p.valid()) {
    std::cout << "unroutable (rail-only cross-rail, or failed links)\n";
    return 2;
  }
  std::cout << "rank " << o.src << " -> rank " << o.dst << " (sport " << o.sport << "), "
            << p.hops() << " hops:\n  " << c.topo.node(src_att.nic).name;
  for (const LinkId l : p.links) std::cout << " -> " << c.topo.node(c.topo.link(l).dst).name;
  std::cout << "\n";
  if (probe) {
    const auto records = routing::int_probe(c.topo, p);
    std::cout << "INT records:\n";
    for (const auto& rec : records) {
      std::cout << "  " << c.topo.node(rec.switch_id).name << " in-port "
                << rec.ingress_port << " out-port " << rec.egress_port << " plane "
                << rec.plane << " rail " << rec.rail << "\n";
    }
    if (c.rail_of(o.src) != c.rail_of(o.dst)) {
      std::cout << "blueprint: skipped (cross-rail pair; rail alignment not expected)\n";
    } else {
      const int plane = c.topo.node(c.topo.link(p.links.front()).dst).loc.plane;
      const auto violations = routing::check_blueprint(c, records, plane, c.rail_of(o.src));
      std::cout << (violations.empty() ? "blueprint: OK\n" : "blueprint: VIOLATIONS\n");
      for (const auto& v : violations) std::cout << "  " << v << "\n";
    }
  }
  return 0;
}

struct DrillOutcome {
  double baseline = 0.0;
  double after = 0.0;
  bool crashed = false;
};

/// Reads a finished drill: its outcome, the Simulator (and its tracer) and
/// the FlowSession.
using DrillReport = std::function<void(const DrillOutcome&, const sim::Simulator&,
                                       const flowsim::FlowSession&)>;

/// The compact fig18-style drill `failover` and `sweep` both run: 16 hosts /
/// 128 GPUs train LLaMa-7B, one NIC-ToR link fails after 5 iterations and
/// is repaired `repair_s` simulated seconds later, then 15 more iterations
/// run. Builds its own cluster + Simulator so drills can run concurrently.
/// With a `report`, every layer records into the Simulator's tracer —
/// iteration and collective spans, link down/up, fabric events, per-flow
/// stall/reroute/resume — and `report` reads the finished run.
DrillOutcome run_drill(bool dual_tor, bool dual_plane, double repair_s,
                       const DrillReport& report = {}) {
  auto cfg = topo::HpnConfig::tiny();
  cfg.segments_per_pod = 1;
  cfg.hosts_per_segment = 16;
  cfg.dual_tor = dual_tor;
  cfg.dual_plane = dual_plane;
  topo::Cluster cluster = topo::build_hpn(cfg);
  sim::Simulator sim;
  if (report) sim.tracer().enable();
  flowsim::FlowSession session{cluster.topo, sim};
  routing::Router router{cluster.topo};
  ccl::ConnectionManager connections{cluster, router};
  ctrl::FabricController fabric{cluster, sim, router};

  auto model = workload::llama_7b();
  model.compute_per_iteration = Duration::millis(200);
  const auto plan = workload::ParallelismPlanner{cluster}.plan(8, 1, 16);
  train::TrainingJob job{cluster, sim, session, connections, plan, model};

  DrillOutcome out;
  job.run_iterations(5);
  out.baseline = job.steady_samples_per_sec(3);
  fabric.fail_access(plan.hosts[0], 0, 0);
  job.on_fabric_change();
  sim.schedule_after(Duration::seconds(repair_s), [&] {
    fabric.repair_access(plan.hosts[0], 0, 0);
    job.on_fabric_change();
  });
  job.run_iterations(15);
  out.crashed = job.state() == train::JobState::kCrashed;
  out.after = job.steady_samples_per_sec(3);
  if (report) report(out, sim, session);
  return out;
}

int cmd_failover(const Options& o) {
  const std::string path = o.trace_path.empty() ? "failover_trace.json" : o.trace_path;
  bool saved = false;
  run_drill(o.dual_tor, o.dual_plane && o.dual_tor, 2.0,
            [&](const DrillOutcome& d, const sim::Simulator& sim,
                const flowsim::FlowSession& session) {
              const metrics::Tracer& tracer = sim.tracer();
              std::cout << "failover drill: baseline " << d.baseline
                        << " samples/s, after repair " << d.after << " samples/s, job "
                        << (d.crashed ? "CRASHED" : "RUNNING") << "\n"
                        << "trace: " << tracer.size() << " events ("
                        << tracer.events_of(metrics::TraceEventKind::kLinkDown).size()
                        << " link-down, "
                        << tracer.events_of(metrics::TraceEventKind::kFlowReroute).size()
                        << " reroute, "
                        << tracer.events_of(metrics::TraceEventKind::kIterationEnd).size()
                        << " iterations)\n";
              // The solver's lifetime work and the flows still live at the end.
              const flowsim::IncrementalMaxMin::Stats& ss = session.solver_stats();
              std::cout << "solver: " << ss.resolves << " resolves, " << ss.flows_rerated
                        << " flows re-rated; live " << session.solver_aggregation().flows
                        << " network flows\n";
              saved = tracer.save(path);
            });
  if (!saved) {
    std::cerr << "error: cannot write " << path << "\n";
    return 1;
  }
  std::cout << "wrote " << path
            << (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0
                    ? " (open in chrome://tracing or ui.perfetto.dev)\n"
                    : " (CSV)\n");
  return 0;
}

int cmd_sweep(const Options& o) {
  struct Case {
    bool dual;
    double repair_s;
  };
  const std::vector<Case> cases{{true, 0.5},  {true, 2.0},  {true, 5.0},
                                {false, 0.5}, {false, 2.0}, {false, 5.0}};
  // Each case is an independent simulation; parallel_map fans them out
  // over --jobs threads and returns results in case order, so the table
  // is identical at any job count.
  const std::vector<DrillOutcome> outcomes = exec::parallel_map(
      o.jobs, cases.size(),
      [&](std::size_t i) {
        return run_drill(cases[i].dual, cases[i].dual, cases[i].repair_s);
      });

  metrics::Table t{"failover drill grid — 128 GPUs, NIC-ToR link failure"};
  t.columns({"design", "repair_after", "baseline_sps", "after_sps", "outcome"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const DrillOutcome& d = outcomes[i];
    t.add_row({cases[i].dual ? "dual-ToR" : "single-ToR",
               metrics::Table::num(cases[i].repair_s, 1) + "s",
               metrics::Table::num(d.baseline, 1),
               d.crashed ? "-" : metrics::Table::num(d.after, 1),
               d.crashed ? "CRASHED" : "recovered"});
  }
  t.print(std::cout);
  return 0;
}

int cmd_cluster(const Options& o) {
  cluster::ClusterConfig cfg;
  if (!o.fabric.empty()) cfg.fabric = o.fabric;
  if (o.segments_set) cfg.scale.segments_per_pod = o.segments;
  if (o.hosts_set) cfg.scale.hosts_per_segment = o.hosts;
  if (o.pods_set) cfg.scale.pods = o.pods;
  const auto policy = cluster::policy_from_string(o.policy);
  if (!policy) {
    std::cerr << "unknown --policy '" << o.policy << "' (" << cluster::policy_names()
              << ")\n";
    return 1;
  }
  cfg.policy = *policy;
  cfg.trace.seed = o.seed;
  cfg.trace.jobs = o.jobs_count;
  cfg.faults = o.faults;
  cfg.trace_path = o.trace_path;

  const cluster::ClusterReport report = cluster::run_cluster(cfg);

  metrics::Table t{"multi-tenant cluster — " + std::string{cluster::to_string(*policy)} +
                   ", seed " + std::to_string(o.seed)};
  t.columns({"job", "kind", "arrival_s", "start_s", "jct_s", "hosts", "segments",
             "iters", "restarts", "outcome"});
  for (const auto& j : report.jobs) {
    t.add_row({std::to_string(j.id), std::string{cluster::to_string(j.kind)},
               metrics::Table::num(j.arrival.as_seconds(), 3),
               metrics::Table::num(j.start.as_seconds(), 3),
               metrics::Table::num(j.jct().as_seconds(), 3), std::to_string(j.hosts),
               std::to_string(j.segments), std::to_string(j.iterations),
               std::to_string(j.restarts), j.aborted ? "ABORTED" : "finished"});
  }
  t.print(std::cout);
  std::cout << "utilization " << metrics::Table::percent(report.utilization, 1)
            << ", mean fragmentation " << metrics::Table::num(report.mean_fragmentation, 3)
            << ", crashes " << report.crashes << " ($"
            << metrics::Table::num(report.crash_cost_dollars, 2) << "), makespan "
            << metrics::Table::num(report.finished_at.as_seconds(), 3) << "s\n"
            << "training mean JCT "
            << metrics::Table::num(report.mean_jct_s(cluster::JobKind::kTraining), 3)
            << "s, inference mean JCT "
            << metrics::Table::num(report.mean_jct_s(cluster::JobKind::kInference), 3)
            << "s\n";
  if (!cfg.trace_path.empty()) {
    if (!report.trace_saved) {
      std::cerr << "error: cannot write " << cfg.trace_path << "\n";
      return 1;
    }
    std::cout << "wrote " << cfg.trace_path << " (" << report.trace_events << " events, "
              << report.trace_overwritten << " overwritten)\n";
  }
  return 0;
}

int cmd_scale() {
  std::cout << "Table 2 — scale mechanism chain:\n";
  for (const auto& s : topo::scale_mechanisms()) {
    std::cout << "  " << s.mechanism << ": tier1 "
              << (s.tier1_gpus ? std::to_string(s.tier1_gpus) : "-") << ", tier2 "
              << (s.tier2_gpus ? std::to_string(s.tier2_gpus) : "-") << "\n";
  }
  const auto any = topo::any_to_any_pod();
  const auto rail = topo::rail_only_pod();
  std::cout << "Table 4 — any-to-any: " << any.gpus_per_pod << " GPUs / "
            << any.tier2_planes << " planes; rail-only: " << rail.gpus_per_pod
            << " GPUs / " << rail.tier2_planes << " planes (rail-only comms)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    if (o.command == "build") return cmd_build(o);
    if (o.command == "trace") return cmd_trace(o, false);
    if (o.command == "probe") return cmd_trace(o, true);
    if (o.command == "scale") return cmd_scale();
    if (o.command == "failover") return cmd_failover(o);
    if (o.command == "sweep") return cmd_sweep(o);
    if (o.command == "cluster") return cmd_cluster(o);
    if (o.command == "serve") return cmd_serve(o);
    std::cerr << "error: unknown command '" << o.command << "'\n";
    usage();
    return 2;
  } catch (const ConfigError& e) {
    // Usage errors: bad flags/values must fail loudly, not run something
    // other than what was asked for.
    std::cerr << "error: " << e.what() << "\n";
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
