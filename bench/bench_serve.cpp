// Query-service harness: cold vs warm vs cached latency on Pod-scale
// capacity-planning queries (writes results/bench_serve.csv).
//
// Three phases over one kHpnPod base scenario:
//   * cold   — fresh QueryEngine per sample, so each kill-link query pays
//              the full base build (materialize the pod, build + resolve
//              the per-flow solver) before its delta.
//   * warm   — one engine, distinct kill-link cables: every query runs on
//              the roll-back-synced scratch copy of the cached base solver
//              and re-solves only the affected component.
//   * cached — the same queries again: content-addressed hits that decode
//              the stored wire bytes without touching a solver.
//
// Acceptance, exact (both modes): every cold build routes its flows with
// one distance field per (segment, rail) attachment set; the warm and
// cached phases build no base and no field, and cached answers evaluate
// nothing; every warm/cached answer is byte-identical (wire encoding) to
// the cold answer for the same query, at --jobs 1 and at the requested
// --jobs. Full mode also keeps wall-ratio floors (warm >= 10x and cached
// >= 25x faster than the cold median) well under the measured ratios;
// --smoke skips them (CI containers share cores).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "scenario/scenario.h"
#include "serve/serve.h"
#include "serve/wire.h"

namespace {

using namespace hpn;

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Pod-scale base: hosts-per-segment x segments, one training-job ring per
/// segment (HPN training traffic is segment-local by design — the paper's
/// rail-optimized placement keeps collectives under one ToR tier), with
/// distinct caps (forces multi-round water-filling) and one flap in the
/// fault schedule so `run` has time-domain work. Segment-local rings keep
/// the flow components per-segment, so a kill-link re-solves the one job
/// the failure hits instead of the whole Pod — the workload shape the
/// warm-start path exists for.
fuzz::Scenario pod_scenario(std::uint32_t hosts, std::uint32_t segments,
                            std::uint32_t flow_count) {
  fuzz::Scenario s;
  s.seed = 20260808;
  s.topology = fuzz::TopologyKind::kHpnPod;
  s.size_knob = hosts;
  s.wiring = segments;
  // materialize() exposes 2 NICs per host, segment-major; ring each flow
  // to the next endpoint within its source's segment.
  const std::uint32_t eps_per_seg = hosts * 2;
  const std::uint32_t total_eps = eps_per_seg * segments;
  for (std::uint32_t i = 0; i < flow_count; ++i) {
    const std::uint32_t src = i % total_eps;
    const std::uint32_t seg = src / eps_per_seg;
    const std::uint32_t dst = seg * eps_per_seg + (src + 1) % eps_per_seg;
    s.flows.push_back({src, dst, std::int64_t{1} << 20, 40.0 + (i % 17)});
  }
  s.faults.push_back(
      {fuzz::ScenarioFault::Kind::kLinkFlap, 500000, 2, 1000000});
  return s;
}

struct Phase {
  std::string name;
  std::vector<double> us;  ///< per-query latencies
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::banner("hpnsim serve: cold vs warm vs cached query latency",
                "capacity-planning queries re-use the base scenario's solver "
                "state instead of re-simulating from scratch");

  const std::uint32_t hosts = args.smoke ? 8 : 128;
  const std::uint32_t segments = args.smoke ? 2 : 16;
  const std::uint32_t flows = args.smoke ? 16 : 16384;
  // materialize() builds 2 rails (NICs) per host, and every NIC of one rail
  // in one segment shares its dual-ToR pair: one field per pair.
  const std::uint64_t fields_per_base = std::uint64_t{segments} * 2;
  const int cold_samples = args.smoke ? 2 : 3;
  const int warm_samples = args.smoke ? 12 : 60;
  const fuzz::Scenario base = pod_scenario(hosts, segments, flows);
  std::cout << "base: hpn_pod hosts=" << hosts << " segments=" << segments
            << " flows=" << flows << " (jobs=" << args.jobs << ")\n";

  const auto kill_query = [&](std::uint32_t cable) {
    serve::QueryRequest q;
    q.verb = serve::QueryRequest::Verb::kKillLink;
    q.arg0 = cable;
    q.scenario = base;
    return q;
  };

  // ---- cold: fresh engine per sample, full base build per query ----------
  Phase cold{"cold", {}};
  std::vector<std::string> cold_bytes;  // wire encoding per cable index
  for (int i = 0; i < cold_samples; ++i) {
    serve::QueryEngine engine;
    const auto start = Clock::now();
    const auto answers =
        engine.answer({kill_query(static_cast<std::uint32_t>(i))});
    cold.us.push_back(us_since(start));
    if (!answers[0].ok || answers[0].source != serve::Answer::Source::kCold) {
      std::cout << "FAIL: cold sample " << i << " did not evaluate cold\n";
      return 1;
    }
    cold_bytes.push_back(serve::encode_result(answers[0].result));
    if (engine.stats().bases_built != 1 || engine.stats().fields_built != fields_per_base) {
      std::cout << "FAIL: cold sample " << i << " built " << engine.stats().bases_built
                << " bases and " << engine.stats().fields_built << " distance fields; want 1 and "
                << fields_per_base << "\n";
      return 1;
    }
  }

  // ---- warm: one engine, distinct cables off the cached base -------------
  serve::QueryEngine engine{{.jobs = args.jobs}};
  (void)engine.answer({kill_query(1u << 20)});  // prime: builds the base
  const serve::EngineStats primed = engine.stats();
  // What the wall ratios stood for, exactly: after the prime no phase
  // builds a base or routes a flow.
  const auto built_nothing = [&](const char* phase) {
    const serve::EngineStats& now = engine.stats();
    if (now.bases_built == primed.bases_built && now.fields_built == primed.fields_built) {
      return true;
    }
    std::cout << "FAIL: the " << phase << " phase built " << now.bases_built - primed.bases_built
              << " bases and " << now.fields_built - primed.fields_built << " distance fields\n";
    return false;
  };
  Phase warm{"warm", {}};
  for (int i = 0; i < warm_samples; ++i) {
    const auto start = Clock::now();
    const auto answers =
        engine.answer({kill_query(static_cast<std::uint32_t>(i))});
    warm.us.push_back(us_since(start));
    if (!answers[0].ok || answers[0].source != serve::Answer::Source::kWarm) {
      std::cout << "FAIL: warm sample " << i << " was not a warm eval\n";
      return 1;
    }
    if (i < cold_samples &&
        serve::encode_result(answers[0].result) !=
            cold_bytes[static_cast<std::size_t>(i)]) {
      std::cout << "FAIL: warm answer for cable " << i
                << " diverged from the cold answer\n";
      return 1;
    }
  }

  if (!built_nothing("warm")) return 1;

  // ---- cached: the same queries again, served off the result cache -------
  const serve::EngineStats before_cached = engine.stats();
  Phase cached{"cached", {}};
  for (int i = 0; i < warm_samples; ++i) {
    const auto start = Clock::now();
    const auto answers =
        engine.answer({kill_query(static_cast<std::uint32_t>(i))});
    cached.us.push_back(us_since(start));
    if (!answers[0].ok || answers[0].source != serve::Answer::Source::kHit) {
      std::cout << "FAIL: cached sample " << i << " missed the cache\n";
      return 1;
    }
    if (i < cold_samples &&
        serve::encode_result(answers[0].result) !=
            cold_bytes[static_cast<std::size_t>(i)]) {
      std::cout << "FAIL: cached answer for cable " << i
                << " diverged from the cold answer\n";
      return 1;
    }
  }

  if (!built_nothing("cached")) return 1;
  if (engine.stats().computes != before_cached.computes ||
      engine.stats().cache_hits - before_cached.cache_hits !=
          static_cast<std::uint64_t>(warm_samples)) {
    std::cout << "FAIL: the cached phase evaluated "
              << engine.stats().computes - before_cached.computes << " queries and hit "
              << engine.stats().cache_hits - before_cached.cache_hits << " of " << warm_samples
              << "\n";
    return 1;
  }

  // ---- byte-stability at any --jobs: one mixed batch, jobs ladder --------
  std::vector<serve::QueryRequest> batch;
  for (std::uint32_t i = 0; i < 8; ++i) batch.push_back(kill_query(100 + i));
  serve::QueryRequest add;
  add.verb = serve::QueryRequest::Verb::kAddJob;
  add.arg0 = 6;
  add.arg1 = 25.0;
  add.scenario = base;
  batch.push_back(add);
  serve::QueryRequest resize;
  resize.verb = serve::QueryRequest::Verb::kResize;
  resize.arg0 = hosts / 2;
  resize.scenario = base;
  batch.push_back(resize);
  std::vector<std::string> ladder_bytes;
  for (const int jobs : {1, args.jobs}) {
    serve::QueryEngine fresh{{.jobs = jobs}};
    std::string all;
    for (const serve::Answer& a : fresh.answer(batch)) {
      if (!a.ok) {
        std::cout << "FAIL: batch query errored: " << a.error << "\n";
        return 1;
      }
      all += serve::encode_result(a.result);
    }
    ladder_bytes.push_back(std::move(all));
  }
  const bool jobs_stable = ladder_bytes[0] == ladder_bytes[1];

  const double cold_med = median(cold.us);
  metrics::Table t{"serve query latency (kill-link on a cached pod base)"};
  t.columns({"phase", "queries", "median_us", "mean_us", "qps",
             "speedup_vs_cold"});
  for (const Phase& p : {cold, warm, cached}) {
    double total = 0.0;
    for (const double u : p.us) total += u;
    const double med = median(p.us);
    t.add_row({p.name, std::to_string(p.us.size()),
               metrics::Table::num(med, 1),
               metrics::Table::num(total / static_cast<double>(p.us.size()), 1),
               metrics::Table::num(1e6 * static_cast<double>(p.us.size()) /
                                       std::max(1.0, total),
                                   0),
               metrics::Table::num(cold_med / std::max(1e-9, med), 1)});
  }
  bench::emit(t, "bench_serve", args);
  std::cout << "answers byte-stable at jobs {1," << args.jobs << "}: "
            << (jobs_stable ? "yes" : "NO") << "\n";

  if (!jobs_stable) {
    std::cout << "FAIL: batch answers changed with --jobs\n";
    return 1;
  }
  if (!args.smoke) {
    const double warm_x = cold_med / std::max(1e-9, median(warm.us));
    const double cached_x = cold_med / std::max(1e-9, median(cached.us));
    if (warm_x < 10.0 || cached_x < 25.0) {
      std::cout << "FAIL: warm " << metrics::Table::num(warm_x, 1)
                << "x / cached " << metrics::Table::num(cached_x, 1)
                << "x vs cold; the floors are 10x and 25x\n";
      return 1;
    }
  }
  std::cout << "ok\n";
  return 0;
}
