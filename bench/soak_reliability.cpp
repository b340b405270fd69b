// Reliability soak — §2.3 end to end: replay a year of production failure
// statistics (Fig 5 rates) against a 2304-GPU job on dual-ToR vs single-ToR
// access, counting crashes and pricing them with the checkpoint economics.
// The paper's arithmetic says a large job sees 1-2 crashes per month on a
// single-attached fabric; dual-ToR converts essentially all of those into
// transient degradations ("no single-point failure in 8 months", §9.3).
#include "bench_common.h"
#include "fault/checkpoint.h"
#include "fault/failure_injector.h"
#include "topo/builders.h"

namespace {

using namespace hpn;

struct SoakResult {
  int events = 0;
  int crashes = 0;        ///< Host isolated longer than the NCCL timeout.
  int degradations = 0;   ///< Capacity lost but job kept running.
  double dollars = 0.0;
  double goodput = 1.0;
};

SoakResult soak(bool dual_tor, std::uint64_t seed) {
  auto cfg = topo::HpnConfig::tiny();
  cfg.segments_per_pod = 3;
  cfg.hosts_per_segment = 96;  // 288 hosts / 2304 GPUs
  cfg.tor_uplinks = 20;
  cfg.aggs_per_plane = 20;
  cfg.dual_tor = dual_tor;
  topo::Cluster c = topo::build_hpn(cfg);

  fault::FailureInjector injector{c, seed};

  const Duration horizon = Duration::hours(24.0 * 365);
  const Duration repair_after = Duration::minutes(30.0);  // field replacement
  const Duration nccl_timeout = Duration::minutes(2.0);
  const auto plan = injector.draw_plan(horizon, repair_after);

  SoakResult res;
  fault::CheckpointModel checkpoints;
  const int gpus = c.gpu_count();

  // Event-driven adjudication: walk the plan; for each event decide whether
  // any host is isolated past the collective timeout (crash) or merely
  // degraded. Flaps recover within seconds and cannot isolate dual-ToR.
  for (const auto& e : plan) {
    ++res.events;
    bool isolates = false;
    switch (e.kind) {
      case fault::InjectionPlanEntry::Kind::kLinkFail:
        // A hard link failure isolates the rail's NIC iff there is no
        // second port, and the repair exceeds the timeout.
        isolates = !dual_tor && repair_after > nccl_timeout;
        break;
      case fault::InjectionPlanEntry::Kind::kLinkFlap:
        isolates = !dual_tor && e.repair_after > nccl_timeout;
        break;
      case fault::InjectionPlanEntry::Kind::kTorCrash:
        // A ToR crash takes one port of every attached NIC; under dual-ToR
        // the sibling keeps all hosts attached.
        isolates = !dual_tor && repair_after > nccl_timeout;
        break;
    }
    if (isolates) {
      ++res.crashes;
      res.dollars += checkpoints.expected_crash_cost(gpus).dollars;
    } else {
      ++res.degradations;
    }
  }
  res.goodput = checkpoints.goodput_fraction(res.crashes / 12.0, gpus);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hpn;
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::banner("Reliability soak — one year of Fig 5 failure rates vs a 2304-GPU job",
                "single-attached access: 1-2 crashes/month, ~$30K each; dual-ToR: "
                "failures become transient degradations (zero single-point crashes "
                "in 8 months of production)");

  // Both designs draw the same injection plan (same seed) against their own
  // cluster, so the sweep runs them on --jobs workers.
  const std::vector<bool> designs{false, true};
  const std::vector<SoakResult> results = bench::sweep(
      designs, args.jobs, [](bool dual_tor) { return soak(dual_tor, 20240804); });
  const SoakResult& single = results[0];
  const SoakResult& dual = results[1];

  metrics::Table t{"one simulated year at Fig 5 failure rates"};
  t.columns({"access design", "injected_events", "job_crashes", "degradations",
             "crash_cost_usd", "goodput"});
  t.add_row({"single-ToR", std::to_string(single.events), std::to_string(single.crashes),
             std::to_string(single.degradations), metrics::Table::num(single.dollars, 0),
             metrics::Table::percent(single.goodput, 2)});
  t.add_row({"dual-ToR (HPN)", std::to_string(dual.events), std::to_string(dual.crashes),
             std::to_string(dual.degradations), metrics::Table::num(dual.dollars, 0),
             metrics::Table::percent(dual.goodput, 2)});
  bench::emit(t, "soak_reliability");

  std::cout << "\nsingle-ToR crash rate: " << metrics::Table::num(single.crashes / 12.0, 1)
            << "/month (paper arithmetic: 1-2); dual-ToR eliminates all "
            << single.crashes << " of them, saving ~$"
            << metrics::Table::num(single.dollars - dual.dollars, 0) << "/year/job\n";
  return 0;
}
