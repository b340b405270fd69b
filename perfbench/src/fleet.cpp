// Workload `fleet`: the bench_cluster fleet as one closed batch.
//
// One repetition calls cluster::run_cluster once per placement policy
// (locality, random, frag-min) with bench_cluster's full config: HPN,
// 4 segments x 32 hosts, a 24-job Fig-6 trace at 100 ms mean interarrival,
// 4-10 iterations, <= 32 hosts per job, 2 access-link flaps. It drives
// FlowSession, the water-filler and Router hard (the random policy alone
// starts ~520K flows) and never touches the scenario materializer, the
// tracer read path, the fluid engine or serve.
//
// From outside only per-policy time and counts are visible; the traced pass
// reads the counts back from the trace each run exports via
// ClusterConfig::trace_path.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>

#include "cluster/cluster_sim.h"
#include "cluster/trace.h"
#include "common/rng.h"
#include "fabric/fabric.h"
#include "harness.h"

namespace perfbench {
namespace {

using namespace hpn;

constexpr std::size_t kTraceRing = std::size_t{1} << 20;  // Tracer::enable default

const std::vector<cluster::Policy> kPolicies = {
    cluster::Policy::kLocalityAware, cluster::Policy::kRandom, cluster::Policy::kFragMin};

/// bench/bench_cluster.cpp's config_for(), full scale (tiny = its --smoke).
cluster::ClusterConfig fleet_config(cluster::Policy policy, std::uint64_t seed, bool tiny) {
  cluster::ClusterConfig cfg;
  cfg.policy = policy;
  cfg.trace.seed = seed;
  cfg.trace.jobs = tiny ? 8 : 24;
  cfg.trace.mean_interarrival = Duration::millis(tiny ? 150 : 100);
  cfg.trace.min_iterations = 4;
  cfg.trace.max_iterations = 10;
  cfg.trace.max_job_hosts = 32;
  cfg.faults = tiny ? 0 : 2;
  return cfg;
}

std::string summary_row(const cluster::ClusterReport& r) {
  std::string row = r.summary_csv_row();
  if (!row.empty() && row.back() == '\n') row.pop_back();
  return row;
}

/// The job mix every seed replays: the committed fleet's trace. Drawing the
/// mix from --seed would swing one batch between 3 and 7 s across seeds; with
/// it fixed, the seed drives what varies between runs of one fleet (random
/// placement, the access-link flaps, the inference tenants) and the work
/// stays comparable.
constexpr std::uint64_t kJobMixSeed = 2024;

/// Batch k of a run uses placement seed --seed for k = 0 and a seed derived
/// from (--seed, k) after, so a run's median batch is taken over several
/// placements rather than one (random placement alone moves a batch by
/// +-10%). At --seed 2024 batch 0 is exactly bench_cluster's seed-2024 case.
std::uint64_t batch_seed(std::uint64_t seed, int batch) {
  if (batch == 0) return seed;
  return hpn::detail::splitmix64_mix(seed ^
                                     (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(batch)));
}

struct Setup {
  std::size_t links = 0;
  std::vector<cluster::JobSpec> jobs;
  double build_s = 0.0;
  std::map<std::string, std::string> expected_rows;  ///< policy -> golden row
};

/// Set-up: load the committed expected rows (only bench_cluster's seed-2024
/// case uses this job mix), build the fabric the runs use, and draw the job
/// trace, the program's input.
Setup set_up(const Options& opts) {
  Setup s;
  if (!opts.tiny && opts.seed == kJobMixSeed) {
    const std::string seed_field = "," + std::to_string(opts.seed) + ",";
    for (const std::string& line : read_lines(opts.root + "/results/bench_cluster.csv")) {
      const std::size_t comma = line.find(',');
      if (comma != std::string::npos && line.compare(comma, seed_field.size(), seed_field) == 0) {
        s.expected_rows[line.substr(0, comma)] = line;
      }
    }
  }
  const cluster::ClusterConfig cfg = fleet_config(kPolicies[0], kJobMixSeed, opts.tiny);
  const auto t0 = Clock::now();
  const topo::Cluster c = fabric::fabric_or_throw(cfg.fabric).build(cfg.scale);
  s.build_s = seconds_since(t0);
  s.links = c.topo.links().size();
  int schedulable = 0;
  for (const auto& h : c.hosts) schedulable += h.backup ? 0 : 1;
  s.jobs = cluster::generate_trace(cfg.trace, schedulable, c.gpus_per_host);
  return s;
}

/// Every job ran and finished after it arrived; the run's ratios are in range.
bool well_formed(const cluster::ClusterReport& r, std::size_t jobs) {
  if (r.jobs.size() != jobs || !(r.utilization > 0.0 && r.utilization <= 1.0)) return false;
  if (!(r.mean_fragmentation >= 0.0 && r.mean_fragmentation <= 1.0)) return false;
  for (const cluster::JobStats& j : r.jobs) {
    if (j.start < j.arrival || j.finish < j.start) return false;
  }
  return true;
}

struct TraceCounts {
  std::uint64_t records = 0;
  std::uint64_t flows_started = 0;
  std::uint64_t collectives = 0;
  std::uint64_t iterations = 0;
};

TraceCounts count_trace(const std::string& path) {
  TraceCounts c;
  std::ifstream in{path};
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    ++c.records;
    const std::size_t a = line.find(',');
    const std::size_t b = line.find(',', a + 1);
    if (a == std::string::npos || b == std::string::npos) continue;
    const std::string_view kind{line.data() + a + 1, b - a - 1};
    if (kind == "flow_start") ++c.flows_started;
    if (kind == "collective_begin") ++c.collectives;
    if (kind == "iteration_end") ++c.iterations;
  }
  return c;
}

}  // namespace

void run_fleet(const Options& opts, Report& report) {
  // Set-up runs again before every batch, so its median samples the whole
  // window rather than one moment of a noisy host.
  std::vector<double> setup_s;
  Setup setup;
  int crashes = 0;
  const auto set_up_timed = [&] {
    const auto t0 = Clock::now();
    setup = set_up(opts);
    setup_s.push_back(seconds_since(t0));
  };
  set_up_timed();
  std::cout << "fleet: seed " << opts.seed << ", " << setup.jobs.size() << " jobs, "
            << setup.links << " links, expected rows for this seed: "
            << setup.expected_rows.size() << "\n";

  // One batch: every policy once at placement seed batch_seed(seed, k).
  // Checks: every run's report is well formed, and batch 0's summary rows
  // equal the committed rows where this seed has them.
  const auto batch = [&](int k, bool traced, std::vector<double>& policy_s,
                         std::vector<std::string>& rows) {
    policy_s.clear();
    rows.clear();
    std::uint64_t digest = fnv1a("");
    for (const cluster::Policy policy : kPolicies) {
      const std::string name{cluster::to_string(policy)};
      cluster::ClusterConfig cfg = fleet_config(policy, batch_seed(opts.seed, k), opts.tiny);
      cfg.jobs = setup.jobs;
      if (traced) cfg.trace_path = opts.scratch + "/fleet_" + name + ".csv";
      const auto t0 = Clock::now();
      const cluster::ClusterReport r = cluster::run_cluster(cfg);
      policy_s.push_back(seconds_since(t0));
      rows.push_back(summary_row(r));
      digest = fnv1a(rows.back(), fnv1a(r.jct_csv(), digest));
      bool ok = well_formed(r, setup.jobs.size());
      if (k == 0) {
        const auto golden = setup.expected_rows.find(name);
        if (golden != setup.expected_rows.end()) {
          ok = ok && rows.back() == expected(opts, golden->second);
        }
      }
      report.check(ok, "fleet " + name + " summary row: " + rows.back());
      if (traced) crashes += r.crashes;
    }
    if (k == 0) Report::digest("fleet", digest);
  };

  std::vector<double> policy_s;
  std::vector<std::string> rows;
  if (!opts.trace) {
    std::vector<double> batch_s;
    HostSpeed speed;
    repeat_for(opts.seconds, opts.tiny ? 1 : 3, speed, [&](int k) {
      if (k > 0) set_up_timed();
      batch(k, false, policy_s, rows);
      double s = 0.0;
      for (const double p : policy_s) s += p;
      batch_s.push_back(s);
      std::cout << "fleet: batch " << k << " " << policy_s[0] << " + " << policy_s[1] << " + "
                << policy_s[2] << " = " << s << " s\n";
    });
    report_end_to_end(report, "fleet", batch_s, setup_s,
                      static_cast<double>(kPolicies.size()), speed);
    return;
  }

  // Traced pass: batch 0 untraced for per-policy time, then again with the
  // tracer exporting to files, for the counts and the tracing overhead.
  // Tracing must not change the simulated outputs.
  batch(0, false, policy_s, rows);
  const std::vector<double> untraced = policy_s;
  const std::vector<std::string> untraced_rows = rows;
  batch(0, true, policy_s, rows);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    report.check(rows[i] == expected(opts, untraced_rows[i]),
                 "fleet summary row identical with tracing on: " + rows[i]);
  }
  double untraced_s = 0.0, traced_s = 0.0;
  for (std::size_t i = 0; i < kPolicies.size(); ++i) {
    untraced_s += untraced[i];
    traced_s += policy_s[i];
  }
  TraceCounts total;
  int full_rings = 0;
  for (std::size_t i = 0; i < kPolicies.size(); ++i) {
    const std::string path = opts.scratch + "/fleet_" +
                             std::string{cluster::to_string(kPolicies[i])} + ".csv";
    const TraceCounts c = count_trace(path);
    std::remove(path.c_str());
    report.check(c.records > 0, "fleet trace export " + path);
    full_rings += c.records >= kTraceRing ? 1 : 0;
    total.records += c.records;
    total.flows_started += c.flows_started;
    total.collectives += c.collectives;
    total.iterations += c.iterations;
  }
  std::vector<double> builds;
  for (int i = 0; i < 9; ++i) builds.push_back(set_up(opts).build_s);

  report.metric("topo.build_ms", 1e3 * median(builds), "ms");
  report.metric("topo.links", static_cast<double>(setup.links), "count");
  report.metric("cluster.locality_s", untraced[0], "s");
  report.metric("cluster.random_s", untraced[1], "s");
  report.metric("cluster.frag_min_s", untraced[2], "s");
  report.metric("cluster.flows_started", static_cast<double>(total.flows_started), "count");
  report.metric("cluster.collectives", static_cast<double>(total.collectives), "count");
  report.metric("cluster.iterations", static_cast<double>(total.iterations), "count");
  report.metric("cluster.crashes", crashes, "count");
  report.metric("cluster.trace_ring_full", full_rings, "count");
  report.metric("tracer.records", static_cast<double>(total.records), "count");
  // Inside run_cluster, out of reach: the ring's drop count, and every
  // layer below the cluster scheduler.
  for (const char* name : {"tracer.dropped", "ccl.establish_ms", "ccl.connections",
                           "routing.cached_destinations", "train.iterate_ms", "sim.events",
                           "sim.events_per_s", "maxmin.resolves", "maxmin.flows_rerated",
                           "maxmin.rerated_per_resolve", "maxmin.collapse",
                           "path_table.hit_ratio"}) {
    report.unobservable(name);
  }
  report.metric("tracer.overhead", traced_s / untraced_s, "ratio");
  report.metric("timed.coverage", 1.0, "ratio");
  std::cout << "fleet traced: untraced batch " << untraced_s << " s, traced " << traced_s
            << " s; " << full_rings << " of 3 policy traces filled the "
            << kTraceRing << "-event ring (their counts are lower bounds)\n";
}

}  // namespace perfbench
