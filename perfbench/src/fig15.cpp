// Workload `fig15_train`: the Fig-15 production run, replayed from public
// calls (bench/fig15_e2e_training.cpp's run(), split into set-up and work).
//
// Per fabric (DCN+ with 5 Pods, then HPN with 3 segments): 2 TrainingJob
// iterations of the 288-host 8x8x36 job, the ring-edge connection pass that
// yields the Agg traffic, then the fluid queue probe (8 simulated seconds
// over the crossing ring edges, every Agg downlink watched) and one
// Tracer::series call per watched link. It is the only workload that runs
// flowsim::FluidSimulator and reads the tracer back. It takes no seed: the
// inputs are the paper's job.
#include <iostream>
#include <map>
#include <memory>

#include "flowsim/fluid.h"
#include "harness.h"
#include "metrics/table.h"
#include "topo/builders.h"
#include "train/training_job.h"

namespace perfbench {
namespace {

using namespace hpn;

workload::ModelPreset proprietary_llm() {
  workload::ModelPreset m = workload::gpt3_175b();
  m.name = "proprietary-LLM";
  m.compute_per_iteration = Duration::seconds(8.0);
  m.traffic.dp_all_reduce = DataSize::gigabytes(2.5);
  m.traffic.tp_all_reduce = DataSize::megabytes(400);
  m.dp_rounds_per_iteration = 20;
  return m;
}

/// Everything built before the first simulated event: the fabric, its
/// router and connection manager, and the training session.
struct Rig {
  explicit Rig(bool hpn_fabric) : hpn{hpn_fabric} {
    const auto t0 = Clock::now();
    if (hpn) {
      auto cfg = topo::HpnConfig::tiny();
      cfg.segments_per_pod = 3;
      cfg.hosts_per_segment = 96;
      cfg.tor_uplinks = 20;
      cfg.aggs_per_plane = 20;
      cluster = std::make_unique<topo::Cluster>(topo::build_hpn(cfg));
    } else {
      topo::DcnPlusConfig cfg;
      cfg.pods = 5;
      cluster = std::make_unique<topo::Cluster>(topo::build_dcn_plus(cfg));
      conn_cfg.disjoint_paths = false;
      conn_cfg.wqe_load_balance = false;
    }
    build_s = seconds_since(t0);
    session = std::make_unique<flowsim::FlowSession>(cluster->topo, sim);
    router = std::make_unique<routing::Router>(
        cluster->topo, routing::HashConfig{.seeds = routing::SeedPolicy::kIdentical});
    cm = std::make_unique<ccl::ConnectionManager>(*cluster, *router, conn_cfg);
  }

  bool hpn;
  double build_s = 0.0;
  std::unique_ptr<topo::Cluster> cluster;
  ccl::ConnectionConfig conn_cfg;
  sim::Simulator sim;
  std::unique_ptr<flowsim::FlowSession> session;
  std::unique_ptr<routing::Router> router;
  std::unique_ptr<ccl::ConnectionManager> cm;
};

/// Host seconds spent in each layer's calls, plus the engine counters.
struct Layers {
  double train_s = 0.0, establish_s = 0.0, fluid_s = 0.0, series_s = 0.0;
  std::uint64_t series_calls = 0, tracer_records = 0, tracer_dropped = 0;
  std::uint64_t sim_events = 0, fluid_events = 0, connections = 0;
  std::uint64_t cached_destinations = 0, links = 0;
  std::uint64_t resolves = 0, flows_rerated = 0, path_hits = 0, path_lookups = 0;
  double probe_flows = 0.0, probe_classes = 0.0;
};

struct Result {
  double samples_per_sec = 0.0;
  double agg_gbps = 0.0;
  double agg_queue_mb = 0.0;

  [[nodiscard]] std::string row(bool hpn) const {
    return std::string{hpn ? "HPN" : "DCN+"} + "," + metrics::Table::num(samples_per_sec, 1) +
           "," + metrics::Table::num(agg_gbps, 0) + "," + metrics::Table::num(agg_queue_mb, 2);
  }
};

Result replay(Rig& rig, const Options& opts, Layers& l) {
  topo::Cluster& c = *rig.cluster;
  const auto model = proprietary_llm();
  train::TrainOptions topts;
  topts.ccl.pipeline_chunks = 2;
  const auto plan = workload::ParallelismPlanner{c}.plan(8, 8, 36);  // 288 hosts

  // Traced pass only: sample the solver's aggregation shape every 10 ms of
  // simulated time (one-shot events; they start no flows, so the simulated
  // outputs are unchanged, and they are subtracted from sim.events).
  constexpr int kProbes = 2000;
  if (opts.trace) {
    for (int k = 1; k <= kProbes; ++k) {
      rig.sim.schedule_at(TimePoint::origin() + Duration::millis(10 * k), [&rig, &l] {
        const auto agg = rig.session->solver_aggregation();
        l.probe_flows += static_cast<double>(agg.flows);
        l.probe_classes += static_cast<double>(agg.macro_flows);
      });
    }
  }

  Result res;
  auto t0 = Clock::now();
  {
    train::TrainingJob job{c, rig.sim, *rig.session, *rig.cm, plan, model, topts};
    job.run_iterations(2);
    res.samples_per_sec = job.steady_samples_per_sec(1);
  }
  l.train_s += seconds_since(t0);
  const std::uint64_t probes_fired =
      opts.trace ? std::min<std::uint64_t>(kProbes, static_cast<std::uint64_t>(
                                                        rig.sim.now().as_nanos() / 10'000'000))
                 : 0;
  l.sim_events += rig.sim.processed_events() - probes_fired;

  // Cross-segment (Agg-layer) traffic of the DP rings.
  t0 = Clock::now();
  const DataSize dp_exposed = model.traffic.dp_all_reduce;
  double crossing_bytes = 0.0;
  std::vector<std::vector<LinkId>> crossing_paths;
  std::vector<bool> seen;
  for (const auto& group : plan.dp_groups) {
    const int hosts = static_cast<int>(group.size()) / 8;
    const double edge_bytes = dp_exposed.as_bytes() / 8.0 * 2.0 * (hosts - 1) / hosts;
    for (int i = 0; i < hosts; ++i) {
      for (int rail = 0; rail < 8; ++rail) {
        const int src = group[static_cast<std::size_t>(i * 8 + rail)];
        const int dst = group[static_cast<std::size_t>(((i + 1) % hosts) * 8 + rail)];
        const auto& ids = rig.cm->establish(src, dst);
        for (const ConnId id : ids) {
          if (seen.size() <= id.index()) seen.resize(id.index() + 1, false);
          l.connections += seen[id.index()] ? 0 : 1;
          seen[id.index()] = true;
        }
        const routing::Path& p = rig.cm->path_of(ids.front());
        bool crosses = false;
        for (const LinkId link : p.links) {
          crosses |= c.topo.node(c.topo.link(link).dst).kind == topo::NodeKind::kAgg;
        }
        if (crosses) {
          crossing_bytes += edge_bytes;
          crossing_paths.push_back(p.links);
        }
      }
    }
  }
  const double iter_s = static_cast<double>(plan.world_size()) / res.samples_per_sec;
  res.agg_gbps = crossing_bytes * 8.0 / 1e9 / iter_s;
  l.establish_s += seconds_since(t0);

  // Fluid queue probe over the crossing ring edges.
  t0 = Clock::now();
  sim::Simulator fluid_sim;
  flowsim::FluidConfig fluid_cfg;
  fluid_cfg.tick = Duration::micros(500);
  fluid_cfg.ecn_kmin = DataSize::kilobytes(500);
  fluid_cfg.ecn_kmax = DataSize::megabytes(8);
  fluid_cfg.trace_sample_every = 64;
  flowsim::FluidSimulator fluid{c.topo, fluid_sim, fluid_cfg};
  std::vector<LinkId> agg_downlinks;
  fluid_sim.tracer().enable();
  for (const auto& link : c.topo.links()) {
    if (link.kind == topo::LinkKind::kFabric &&
        c.topo.node(link.src).kind == topo::NodeKind::kAgg) {
      fluid_sim.tracer().watch_link(link.id);
      agg_downlinks.push_back(link.id);
    }
  }
  const std::size_t probe_flows = std::min<std::size_t>(crossing_paths.size(), 1'500);
  for (std::size_t i = 0; i < probe_flows; ++i) {
    fluid.start_flow(crossing_paths[i], Bandwidth::gbps(200));
    fluid.start_flow(crossing_paths[i], Bandwidth::gbps(200));
  }
  fluid_sim.run_for(Duration::seconds(opts.tiny ? 1.0 : 8.0));
  l.fluid_s += seconds_since(t0);

  t0 = Clock::now();
  for (const LinkId link : agg_downlinks) {
    const metrics::TimeSeries q = fluid_sim.tracer().series(
        metrics::TraceEventKind::kQueueDepth, static_cast<std::uint32_t>(link.value()));
    if (!q.empty()) res.agg_queue_mb = std::max(res.agg_queue_mb, q.points().back().value / 1e6);
  }
  l.series_s += seconds_since(t0);
  l.series_calls += agg_downlinks.size();
  l.tracer_records += fluid_sim.tracer().size();
  l.tracer_dropped += fluid_sim.tracer().dropped();
  l.fluid_events += fluid_sim.processed_events();

  const auto& st = rig.session->solver_stats();
  l.resolves += st.resolves;
  l.flows_rerated += st.flows_rerated;
  l.path_hits += rig.session->paths().hits();
  l.path_lookups += rig.session->paths().lookups();
  l.cached_destinations += rig.router->cached_destinations();
  l.links += c.topo.links().size();
  return res;
}

}  // namespace

void run_fig15(const Options& opts, Report& report) {
  std::map<std::string, std::string> expected_rows;  ///< fabric -> committed row
  for (const std::string& line : read_lines(opts.root + "/results/fig15_e2e_training.csv")) {
    expected_rows[line.substr(0, line.find(','))] = line;
  }
  report.check(expected_rows.count("DCN+") == 1 && expected_rows.count("HPN") == 1,
               "fig15 expected rows in results/fig15_e2e_training.csv");

  std::vector<double> setup_s, build_s, wall_s;
  Layers layers;
  const auto rep = [&](int index) {
    // Set-up: both rigs, built afresh before every replay.
    const auto s0 = Clock::now();
    Rig dcn{false}, hpn{true};
    setup_s.push_back(seconds_since(s0));
    build_s.push_back(dcn.build_s + hpn.build_s);
    layers = Layers{};
    const auto t0 = Clock::now();
    std::string outputs;
    for (Rig* rig : {&dcn, &hpn}) {
      const std::string row = replay(*rig, opts, layers).row(rig->hpn);
      const std::string& want = expected_rows[rig->hpn ? "HPN" : "DCN+"];
      // The self-test's shortened fluid probe does not reach the committed
      // peak queue; it checks samples/s and Agg traffic only.
      const std::size_t keep = opts.tiny ? row.rfind(',') : row.size();
      const bool ok = row.substr(0, keep) == expected(opts, want.substr(0, keep));
      report.check(ok, "fig15 row " + row + " (expected " + want + ")");
      outputs += row + "\n";
    }
    wall_s.push_back(seconds_since(t0));
    std::cout << "fig15_train: replay " << index << " " << wall_s.back() << " s\n";
    if (index == 0) Report::digest("fig15_train", fnv1a(outputs));
  };

  if (!opts.trace) {
    HostSpeed speed;
    repeat_for(opts.seconds, opts.tiny ? 1 : 3, speed, rep);
    report_end_to_end(report, "fig15_train", wall_s, setup_s, 2.0, speed);  // 2 fabric replays
    return;
  }

  rep(0);
  const double wall = wall_s.back();
  const Layers& l = layers;
  const double timed = l.train_s + l.establish_s + l.fluid_s + l.series_s;
  report.metric("topo.build_ms", 1e3 * median(build_s), "ms");
  report.metric("topo.links", static_cast<double>(l.links), "count");
  report.metric("ccl.establish_ms", 1e3 * l.establish_s, "ms");
  report.metric("ccl.connections", static_cast<double>(l.connections), "count");
  report.metric("routing.cached_destinations", static_cast<double>(l.cached_destinations),
                "count");
  report.metric("train.iterate_ms", 1e3 * l.train_s, "ms");
  report.metric("sim.events", static_cast<double>(l.sim_events), "count");
  report.metric("sim.events_per_s", static_cast<double>(l.sim_events) / l.train_s, "1/s");
  report.metric("maxmin.resolves", static_cast<double>(l.resolves), "count");
  report.metric("maxmin.flows_rerated", static_cast<double>(l.flows_rerated), "count");
  report.metric("maxmin.rerated_per_resolve",
                static_cast<double>(l.flows_rerated) /
                    static_cast<double>(std::max<std::uint64_t>(1, l.resolves)),
                "count");
  report.metric("maxmin.collapse", l.probe_classes > 0 ? l.probe_flows / l.probe_classes : 1.0,
                "ratio");
  report.metric("path_table.hit_ratio",
                static_cast<double>(l.path_hits) /
                    static_cast<double>(std::max<std::uint64_t>(1, l.path_lookups)),
                "ratio");
  report.metric("fluid.run_ms", 1e3 * l.fluid_s, "ms");
  report.metric("fluid.events", static_cast<double>(l.fluid_events), "count");
  report.metric("tracer.series_ms", 1e3 * l.series_s, "ms");
  report.metric("tracer.series_calls", static_cast<double>(l.series_calls), "count");
  report.metric("tracer.records", static_cast<double>(l.tracer_records), "count");
  report.metric("tracer.dropped", static_cast<double>(l.tracer_dropped), "count");
  report.metric("timed.coverage", timed / wall, "ratio");
  std::cout << "fig15_train traced: replay " << wall << " s = train " << l.train_s
            << " + establish " << l.establish_s << " + fluid " << l.fluid_s << " + series "
            << l.series_s << " (series share " << l.series_s / wall << "); aggregation probes saw "
            << l.probe_flows << " flows in " << l.probe_classes << " solver classes\n";
}

}  // namespace perfbench
