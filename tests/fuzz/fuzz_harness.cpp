#include "tests/fuzz/fuzz_harness.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <vector>

#include "cluster/cluster_sim.h"
#include "common/check.h"
#include "exec/parallel.h"
#include "flowsim/fluid.h"
#include "flowsim/packet.h"
#include "flowsim/session.h"
#include "sim/simulator.h"
#include "tests/support/reference_session.h"
#include "tests/support/session_differential.h"

namespace hpn::fuzz {
namespace {

/// Cross-engine agreement band, applied per flow on lossless-safe (Clos)
/// topologies: engines must land within a 10x ratio or 100 ms of each other.
/// Deliberately loose — the oracle targets "engine forgot / stalled a flow"
/// class bugs, not model differences (DCQCN vs max-min fairness legitimately
/// diverge on transients). Random multigraphs run the packet engine lossy,
/// where timeout retransmission makes completion times heavy-tailed, so they
/// only get the physical lower bound + completion oracles.
constexpr double kRelBand = 10.0;
constexpr double kAbsBandSec = 0.1;

void append_failure(std::string& out, const std::string& msg) {
  if (!out.empty()) out += '\n';
  out += msg;
}

/// Physically slowest rate a flow can be excused for: its own cap and every
/// link capacity on its path bound the delivery rate from above, so
/// size / min_cap lower-bounds the completion time in every engine.
double min_cap_bps(const topo::Topology& topo, const Materialized::Flow& f) {
  double m = f.cap.as_bits_per_sec();
  for (const LinkId l : f.path) {
    m = std::min(m, topo.link(l).capacity.as_bits_per_sec());
  }
  return m;
}

void check_lower_bounds(const Materialized& m, const std::vector<double>& fct,
                        double slack_sec, const char* engine, std::string& out) {
  for (std::size_t i = 0; i < m.flows.size(); ++i) {
    if (fct[i] < 0.0) continue;  // Incomplete (stalled by a fault): no bound.
    const double lb =
        static_cast<double>(m.flows[i].size.as_bits()) / min_cap_bps(m.cluster.topo, m.flows[i]);
    if (fct[i] < lb * (1.0 - 1e-9) - slack_sec) {
      std::ostringstream os;
      os << engine << ": flow " << i << " finished in " << fct[i]
         << " s, below physical bound " << lb << " s";
      append_failure(out, os.str());
    }
  }
}

/// FlowSession phase: the workload runs *with* the fault schedule. Faults
/// flip link state and refresh() the solver; repairs flip it back. Oracles:
/// auditor clean, no flow beats its physical bound, and on fault-free
/// scenarios every flow completes. `Session` selects the engine (production
/// or the eager reference), and `tag` labels any failures. `done` receives
/// every flow's completion instant.
template <class Session>
void run_session_phase(const Scenario& s, const char* tag, std::vector<double>& fct,
                       std::vector<reference::Completion>& done, std::string& out) {
  Materialized m = materialize(s);
  sim::Simulator sim;
  sim.auditor().enable();
  Session session(m.cluster.topo, sim);

  fct.assign(m.flows.size(), -1.0);
  done.assign(m.flows.size(), reference::Completion{});
  sim::Simulator* simp = &sim;
  std::vector<double>* fcts = &fct;
  std::vector<reference::Completion>* dones = &done;
  for (std::size_t i = 0; i < m.flows.size(); ++i) {
    const Materialized::Flow& f = m.flows[i];
    session.start_flow(f.path, f.size, f.cap, [simp, fcts, dones, i](FlowId) {
      (*fcts)[i] = simp->now().since_origin().as_seconds();
      (*dones)[i].done_ns = simp->now().since_origin().as_nanos();
    });
  }

  schedule_faults(sim, m.cluster.topo, m.faults, [&session] { session.refresh(); });

  sim.run();

  if (!sim.auditor().ok()) {
    append_failure(out, std::string(tag) + ": " + sim.auditor().report());
  }
  if (m.faults.empty() && session.active_flows() != 0) {
    std::ostringstream os;
    os << tag << ": " << session.active_flows()
       << " flow(s) never completed on a fault-free scenario";
    append_failure(out, os.str());
  }
  check_lower_bounds(m, fct, 2e-9, tag, out);
}

/// Reference-session differential phase (always on): the session workload
/// + fault schedule re-runs through the eager FlowSession the lazily
/// settled one replaced (tests/support/reference_session.h). The two must
/// complete the same flows in the same same-instant groups with FCTs within
/// max(1 ns, 1e-9 relative).
void run_reference_phase(const Scenario& s, const std::vector<reference::Completion>& done,
                         std::string& out) {
  std::vector<double> ref_fct;
  std::vector<reference::Completion> ref_done;
  run_session_phase<reference::FlowSession>(s, "reference", ref_fct, ref_done, out);
  const std::string diff = reference::compare_completions(done, ref_done);
  if (!diff.empty()) append_failure(out, "reference: session diverges from the eager reference:\n" + diff);
}

/// Fluid phase (fault-free scenarios only): same flows, tick engine.
void run_fluid_phase(const Scenario& s, const RunOptions& opts,
                     std::vector<double>& fct, std::string& out) {
  Materialized m = materialize(s);
  sim::Simulator sim;
  sim.auditor().enable();
  flowsim::FluidSimulator fluid(m.cluster.topo, sim);

  fct.assign(m.flows.size(), -1.0);
  sim::Simulator* simp = &sim;
  std::vector<double>* fcts = &fct;
  for (std::size_t i = 0; i < m.flows.size(); ++i) {
    const Materialized::Flow& f = m.flows[i];
    fluid.start_flow(f.path, f.cap, f.size, [simp, fcts, i](FlowId) {
      (*fcts)[i] = simp->now().since_origin().as_seconds();
    });
  }

  const TimePoint horizon = TimePoint::origin() + opts.horizon;
  while (fluid.active_flows() > 0 && sim.now() < horizon) {
    sim.run_until(std::min(horizon, sim.now() + Duration::millis(20)));
  }
  if (fluid.active_flows() != 0) {
    std::ostringstream os;
    os << "fluid: " << fluid.active_flows() << " flow(s) still active at the "
       << opts.horizon.as_seconds() << " s horizon";
    append_failure(out, os.str());
  } else {
    sim.run();  // Drain the disarming timer event.
  }

  if (!sim.auditor().ok()) {
    append_failure(out, "fluid: " + sim.auditor().report());
  }
  // Completion is detected at tick granularity; allow two ticks of slack.
  check_lower_bounds(m, fct, 2.0 * fluid.config().tick.as_seconds(), "fluid", out);
}

/// Packet phase (fault-free scenarios only). PFC lossless on Clos shapes;
/// lossy with timeout retransmission on random multigraphs, where cyclic
/// buffer dependencies make PFC deadlock a property of the topology rather
/// than a bug.
void run_packet_phase(const Scenario& s, const RunOptions& opts,
                      std::vector<double>& fct, std::string& out) {
  Materialized m = materialize(s);
  sim::Simulator sim;
  sim.auditor().enable();
  flowsim::PacketSimConfig cfg;
  cfg.pfc = m.lossless_safe;
  cfg.seed = s.seed ^ 0x5EEDF00DULL;
  flowsim::PacketSimulator packet(m.cluster.topo, sim, cfg);

  fct.assign(m.flows.size(), -1.0);
  sim::Simulator* simp = &sim;
  std::vector<double>* fcts = &fct;
  for (std::size_t i = 0; i < m.flows.size(); ++i) {
    const Materialized::Flow& f = m.flows[i];
    packet.start_flow(f.path, f.size, f.cap, [simp, fcts, i](FlowId) {
      (*fcts)[i] = simp->now().since_origin().as_seconds();
    });
  }

  const TimePoint horizon = TimePoint::origin() + opts.horizon;
  while (packet.active_flows() > 0 && sim.now() < horizon) {
    sim.run_until(std::min(horizon, sim.now() + Duration::millis(20)));
  }
  if (packet.active_flows() != 0) {
    std::ostringstream os;
    os << "packet: " << packet.active_flows() << " flow(s) still active at the "
       << opts.horizon.as_seconds() << " s horizon"
       << (cfg.pfc ? " (possible PFC deadlock)" : "");
    append_failure(out, os.str());
  } else {
    sim.run();  // Drain stale timers, then audit the byte ledger.
    packet.audit_quiescent();
  }

  if (!sim.auditor().ok()) {
    append_failure(out, "packet: " + sim.auditor().report());
  }
  check_lower_bounds(m, fct, 1e-6, "packet", out);
}

void check_agreement(const Materialized& m, const std::vector<double>& a,
                     const char* a_name, const std::vector<double>& b,
                     const char* b_name, std::string& out) {
  for (std::size_t i = 0; i < m.flows.size(); ++i) {
    if (a[i] < 0.0 || b[i] < 0.0) continue;
    const double hi = std::max(a[i], b[i]);
    const double lo = std::min(a[i], b[i]);
    if (hi > lo * kRelBand + kAbsBandSec) {
      std::ostringstream os;
      os << "cross-engine: flow " << i << " fct disagrees beyond the band: "
         << a_name << "=" << a[i] << " s vs " << b_name << "=" << b[i] << " s";
      append_failure(out, os.str());
    }
  }
}

/// Jobsmix phase: the scenario's job lines replay through the multi-tenant
/// cluster scheduler on a small HPN fabric, once per placement policy, with
/// the InvariantAuditor armed. Oracles:
///   * every policy's run is auditor-clean;
///   * a run is a pure function of its config (second run byte-identical);
///   * job accounting holds (start >= arrival, finish >= start, host counts
///     positive for placed jobs);
///   * fault-free runs complete every job with exactly its requested
///     iterations, identically across policies (scheduler equivalence).
void run_jobsmix_phase(const Scenario& s, std::string& out) {
  cluster::ClusterConfig base;
  base.scale = fabric::FabricScale{/*pods=*/1, /*segments_per_pod=*/2,
                                   /*hosts_per_segment=*/4, /*gpus_per_host=*/4};
  base.trace.seed = s.seed;
  base.audit = true;
  // Scenario faults double as cluster access flaps (bounded; the phase is
  // about scheduler reactions, not the fault schedule's details).
  base.faults = static_cast<int>(std::min<std::size_t>(s.faults.size(), 2));
  base.fault_down_for = Duration::millis(200);
  std::vector<cluster::JobSpec> specs;
  for (const ScenarioJob& j : s.jobs) {
    cluster::JobSpec spec;
    spec.kind = cluster::JobKind::kTraining;
    spec.arrival = TimePoint::origin() + Duration::nanos(j.arrival_ns);
    spec.hosts = static_cast<int>(j.hosts);  // clamped at admission
    spec.iterations = static_cast<int>(j.iters);
    specs.push_back(spec);
  }
  std::stable_sort(specs.begin(), specs.end(),
                   [](const cluster::JobSpec& a, const cluster::JobSpec& b) {
                     return a.arrival < b.arrival;
                   });
  // Ids are assigned in arrival order AFTER the sort, so `specs[id]` is the
  // spec of job `id` — the accounting oracle below indexes by that.
  for (std::size_t i = 0; i < specs.size(); ++i) specs[i].id = static_cast<int>(i);
  base.jobs = specs;

  for (const cluster::Policy policy :
       {cluster::Policy::kLocalityAware, cluster::Policy::kRandom,
        cluster::Policy::kFragMin}) {
    cluster::ClusterConfig cfg = base;
    cfg.policy = policy;
    const cluster::ClusterReport r = cluster::run_cluster(cfg);
    const std::string tag =
        "jobsmix[" + std::string{cluster::to_string(policy)} + "]";
    if (!r.audit_report.empty()) {
      append_failure(out, tag + ": " + r.audit_report);
    }
    if (r.jobs.size() != specs.size()) {
      append_failure(out, tag + ": " + std::to_string(r.jobs.size()) + " of " +
                              std::to_string(specs.size()) + " jobs accounted for");
      continue;
    }
    for (const cluster::JobStats& js : r.jobs) {
      if (js.start < js.arrival) {
        append_failure(out, tag + ": job " + std::to_string(js.id) +
                                " started before it arrived");
      }
      if (!js.aborted && js.finish < js.start) {
        append_failure(out, tag + ": job " + std::to_string(js.id) +
                                " finished before it started");
      }
      if (!js.aborted && js.hosts <= 0) {
        append_failure(out, tag + ": job " + std::to_string(js.id) +
                                " completed with no hosts");
      }
      if (base.faults == 0) {
        const cluster::JobSpec& spec = specs[static_cast<std::size_t>(js.id)];
        if (js.aborted || js.iterations != spec.iterations) {
          append_failure(out, tag + ": fault-free job " + std::to_string(js.id) +
                                  " ran " + std::to_string(js.iterations) + "/" +
                                  std::to_string(spec.iterations) + " iterations" +
                                  (js.aborted ? " and aborted" : ""));
        }
      }
    }
    const cluster::ClusterReport again = cluster::run_cluster(cfg);
    if (again.jct_csv() != r.jct_csv() ||
        again.summary_csv_row() != r.summary_csv_row()) {
      append_failure(out, tag + ": repeated run diverged — scheduler is not a "
                              "pure function of its config");
    }
  }
}

}  // namespace

RunResult run_scenario(const Scenario& scenario, const RunOptions& options) {
  std::string failure;
  std::vector<double> session_fct;
  std::vector<reference::Completion> session_done;
  run_session_phase<flowsim::FlowSession>(scenario, "session", session_fct, session_done,
                                          failure);
  run_reference_phase(scenario, session_done, failure);
  if (!scenario.jobs.empty()) run_jobsmix_phase(scenario, failure);

  if (scenario.faults.empty()) {
    // Cross-engine oracles need an undisturbed workload: fluid has no
    // link-repair semantics and lossy retransmission tails would swamp the
    // bands, so the finer engines only run the fault-free scenarios.
    std::vector<double> fluid_fct;
    std::vector<double> packet_fct;
    run_fluid_phase(scenario, options, fluid_fct, failure);
    run_packet_phase(scenario, options, packet_fct, failure);

    const Materialized m = materialize(scenario);
    if (m.lossless_safe) {
      check_agreement(m, session_fct, "session", fluid_fct, "fluid", failure);
      check_agreement(m, session_fct, "session", packet_fct, "packet", failure);
    }
  }

  RunResult r;
  r.ok = failure.empty();
  r.failure = std::move(failure);
  return r;
}

Scenario shrink(Scenario failing, const FailPredicate& still_fails, int max_evals) {
  int evals = 0;
  bool progressed = true;
  while (progressed && evals < max_evals) {
    progressed = false;
    for (const Scenario& cand : shrink_candidates(failing)) {
      if (++evals > max_evals) break;
      if (still_fails(cand)) {
        failing = cand;
        progressed = true;
        break;
      }
    }
  }
  return failing;
}

std::uint64_t sweep_seed(std::uint64_t master, int index) {
  constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
  return master ^ (kGolden * (static_cast<std::uint64_t>(index) + 1));
}

SweepResult run_sweep(const SweepOptions& options) {
  struct RunRecord {
    bool ok = true;
    TopologyKind topology = TopologyKind::kTinyClos;
    std::size_t flows = 0;
    std::size_t faults = 0;
    std::string detail;
    Scenario scenario;  ///< Kept only for failures (shrunk by the caller).
  };

  const int runs = std::max(0, options.runs);
  std::vector<RunRecord> records(static_cast<std::size_t>(runs));
  // Progress fires from whichever worker finishes a run, so it is
  // serialized here — callers get `done` strictly 1..runs and never need
  // their own locking.
  int done = 0;
  std::mutex progress_mu;

  exec::parallel_for(options.jobs, static_cast<std::size_t>(runs), [&](std::size_t i) {
    const std::uint64_t seed = sweep_seed(options.master_seed, static_cast<int>(i));
    Scenario s = random_scenario(seed);
    if (options.only_topology) s.topology = *options.only_topology;
    if (options.ensure_jobs) ensure_jobs(s);
    const RunResult r = run_scenario(s, options.run);
    RunRecord& rec = records[i];
    rec.ok = r.ok;
    rec.topology = s.topology;
    rec.flows = s.flows.size();
    rec.faults = s.faults.size();
    if (!r.ok) {
      rec.detail = r.failure;
      rec.scenario = s;
    }
    if (options.progress) {
      std::lock_guard<std::mutex> lock{progress_mu};
      options.progress(++done, runs);
    }
  });

  // Aggregate strictly by run index: same bytes at every job count.
  SweepResult result;
  result.runs = runs;
  std::ostringstream csv;
  csv << "run,seed,topology,flows,faults,ok\n";
  for (int i = 0; i < runs; ++i) {
    const RunRecord& rec = records[static_cast<std::size_t>(i)];
    csv << i << ',' << sweep_seed(options.master_seed, i) << ','
        << to_string(rec.topology) << ',' << rec.flows << ',' << rec.faults << ','
        << (rec.ok ? 1 : 0) << '\n';
    if (!rec.ok) {
      result.failures.push_back(SweepFailure{i, sweep_seed(options.master_seed, i),
                                             rec.scenario, rec.detail});
    }
  }
  result.csv = csv.str();
  return result;
}

ReplayOutcome replay_scenario_file(const std::string& path,
                                   const RunOptions& options) {
  std::ifstream in(path);
  if (!in.good()) return ReplayOutcome{ReplayOutcome::Status::kUnreadable, {}};
  std::stringstream buf;
  buf << in.rdbuf();
  const auto s = Scenario::from_text(buf.str());
  if (!s.has_value()) return ReplayOutcome{ReplayOutcome::Status::kParseError, {}};
  const RunResult r = run_scenario(*s, options);
  if (r.ok) return ReplayOutcome{ReplayOutcome::Status::kClean, {}};
  return ReplayOutcome{ReplayOutcome::Status::kReproduced, r.failure};
}

int replay_exit_code(const ReplayOutcome& outcome, bool expect_clean) {
  switch (outcome.status) {
    case ReplayOutcome::Status::kReproduced: return expect_clean ? 1 : 0;
    case ReplayOutcome::Status::kClean: return expect_clean ? 0 : 1;
    case ReplayOutcome::Status::kUnreadable:
    case ReplayOutcome::Status::kParseError: return 2;
  }
  return 2;
}

std::string write_repro(const Scenario& scenario, const std::string& dir) {
  std::filesystem::create_directories(dir);
  std::ostringstream name;
  name << "repro_" << to_string(scenario.topology) << "_seed" << scenario.seed
       << ".scenario";
  const std::filesystem::path path = std::filesystem::path(dir) / name.str();
  std::ofstream os(path);
  HPN_CHECK(os.good());
  os << scenario.to_text();
  return path.string();
}

}  // namespace hpn::fuzz
