// Fuzz harness: run one Scenario through every engine with the
// InvariantAuditor enabled and a battery of cross-engine oracles, plus the
// greedy shrinker and `.scenario` repro writer the fuzz driver uses.
//
// Per scenario:
//   - FlowSession runs the workload *with* the fault schedule (link/ToR
//     faults applied as simulator events + session.refresh()).
//   - The eager reference session (tests/support/reference_session.h)
//     re-runs the same workload and schedule; both must complete the same
//     flows in the same same-instant groups, FCTs within max(1 ns, 1e-9
//     relative).
//   - On fault-free scenarios the fluid and packet engines run the same
//     flows and per-flow completion times are compared across engines
//     (physical lower bound for every engine; generous agreement band on
//     lossless-safe topologies).
//
// Every engine gets its own Simulator and its own materialize() of the
// scenario, so engines can never observe each other's topology mutations.
#pragma once

#include <functional>
#include <string>

#include "tests/fuzz/generator.h"

namespace hpn::fuzz {

struct RunOptions {
  /// Wall for the tick/packet engines; an engine still holding active flows
  /// at the horizon is reported as a failure (stall / deadlock oracle).
  Duration horizon = Duration::seconds(8);
};

struct RunResult {
  bool ok = true;
  std::string failure;  ///< Empty when ok; phase-tagged details otherwise.
};

/// Run the full oracle battery. Deterministic: same scenario + options give
/// the same result, so a failure can be replayed from its `.scenario` file.
RunResult run_scenario(const Scenario& scenario, const RunOptions& options = {});

using FailPredicate = std::function<bool(const Scenario&)>;

/// Greedy shrink: repeatedly take the first shrink_candidates() entry that
/// still fails, until none does (or `max_evals` predicate runs). Terminates
/// because every candidate has strictly smaller scenario_weight().
Scenario shrink(Scenario failing, const FailPredicate& still_fails, int max_evals = 400);

/// Write `scenario.to_text()` to `<dir>/repro_<topology>_seed<seed>.scenario`
/// (creating `dir`), returning the path written.
std::string write_repro(const Scenario& scenario, const std::string& dir);

// ---- Parallel sweeps ------------------------------------------------------

/// Seed for run `index` of a sweep: `master ^ golden*(index+1)`. A pure
/// function of (master, index), so sharding across jobs can never change
/// which scenarios a sweep contains.
std::uint64_t sweep_seed(std::uint64_t master, int index);

struct SweepOptions {
  int runs = 500;
  int jobs = 1;
  std::uint64_t master_seed = 1;
  RunOptions run;
  /// Force every drawn scenario onto one topology kind (per-fabric sweeps).
  /// Workload/fault knobs stay as drawn; materialize() clamps them per
  /// kind, so any knob combination is valid for any kind.
  std::optional<TopologyKind> only_topology;
  /// Guarantee every drawn scenario carries a job mix (ensure_jobs), so the
  /// whole sweep runs the cluster-scheduler phase (--jobsmix).
  bool ensure_jobs = false;
  /// Invoked after each completed run with `done` strictly 1..total.
  /// Calls come from worker threads but are serialized by the sweep, so
  /// the callback needs no locking of its own. Progress reporting only —
  /// it has no effect on the deterministic results.
  std::function<void(int done, int total)> progress;
};

struct SweepFailure {
  int index = 0;          ///< Run index within the sweep.
  std::uint64_t seed = 0; ///< sweep_seed(master, index).
  Scenario scenario;
  std::string detail;     ///< Phase-tagged failure text from run_scenario().
};

struct SweepResult {
  int runs = 0;
  std::vector<SweepFailure> failures;  ///< Ascending run index.
  /// Aggregated per-run rows, ascending run index:
  /// `run,seed,topology,flows,faults,ok`. One header line, '\n' terminated.
  std::string csv;
  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Run the sweep through exec::parallel_for. Every field of the result is
/// bit-identical for fixed (runs, master_seed, run options) regardless of
/// `jobs` — ordering is by run index, never by completion order.
SweepResult run_sweep(const SweepOptions& options);

// ---- Replay ---------------------------------------------------------------

struct ReplayOutcome {
  enum class Status {
    kReproduced,  ///< The scenario still fails the oracle battery.
    kClean,       ///< The scenario no longer reproduces any violation.
    kUnreadable,  ///< File missing/unreadable.
    kParseError,  ///< Not a valid .scenario file.
  };
  Status status = Status::kUnreadable;
  std::string detail;  ///< Violation text when reproduced.
};

/// Load `path` and run the oracle battery on it. Pass the options the repro
/// was found under so its phases actually re-run.
ReplayOutcome replay_scenario_file(const std::string& path,
                                   const RunOptions& options = {});

/// Driver exit code for a replay. A repro file exists *because* of a
/// violation, so by default reproducing it is success (0) and a clean run
/// exits 1 — a silently-passing stale repro must fail CI, not reassure it.
/// `expect_clean` flips the convention for fixed corpus entries. File and
/// parse errors exit 2 either way.
int replay_exit_code(const ReplayOutcome& outcome, bool expect_clean);

}  // namespace hpn::fuzz
