// The parallel-sweep determinism contract: a sweep's failures, repro bytes,
// and aggregated CSV are a function of (master seed, runs, options) alone —
// `--jobs 8` must be byte-identical to `--jobs 1`. Plus the --replay exit
// convention: a repro that no longer reproduces must be reported non-zero.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "scenario/scenario.h"
#include "tests/fuzz/fuzz_harness.h"

namespace hpn::fuzz {
namespace {

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::atoi(v);
}

void expect_identical(const SweepResult& a, const SweepResult& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.csv, b.csv);
  ASSERT_EQ(a.failures.size(), b.failures.size());
  for (std::size_t i = 0; i < a.failures.size(); ++i) {
    EXPECT_EQ(a.failures[i].index, b.failures[i].index);
    EXPECT_EQ(a.failures[i].seed, b.failures[i].seed);
    EXPECT_EQ(a.failures[i].detail, b.failures[i].detail);
    EXPECT_EQ(a.failures[i].scenario, b.failures[i].scenario);
    // Repro files are to_text() bytes, so byte-identical repros too.
    EXPECT_EQ(a.failures[i].scenario.to_text(), b.failures[i].scenario.to_text());
  }
}

TEST(JobsEquivalence, CleanSweepIsJobsInvariant) {
  SweepOptions opts;
  opts.runs = env_int("HPN_FUZZ_EQUIV_RUNS", 12);
  opts.master_seed = 20260805;
  opts.jobs = 1;
  const SweepResult serial = run_sweep(opts);
  opts.jobs = 8;
  const SweepResult parallel = run_sweep(opts);
  expect_identical(serial, parallel);
  EXPECT_TRUE(serial.ok())
      << (serial.failures.empty() ? "" : serial.failures[0].detail);
}

TEST(JobsEquivalence, FailingSweepAggregatesIdenticallyAcrossJobs) {
  // A 1 us horizon leaves every fault-free scenario's flows active in the
  // fluid and packet phases, so a healthy fraction of the scenarios fail
  // the stall oracle: the equivalence claim has to hold for the failure
  // path (violation set, details, repro bytes), not just for all-clean
  // sweeps.
  SweepOptions opts;
  opts.runs = env_int("HPN_FUZZ_EQUIV_RUNS", 12);
  opts.master_seed = 987654321;
  opts.run.horizon = Duration::micros(1);
  opts.jobs = 1;
  const SweepResult serial = run_sweep(opts);
  opts.jobs = 8;
  const SweepResult parallel = run_sweep(opts);
  expect_identical(serial, parallel);
#if defined(__GLIBCXX__)
  // Scenario *contents* depend on libstdc++'s distribution algorithms, so
  // only assert "the short horizon actually bit" where contents are pinned.
  EXPECT_FALSE(serial.ok());
#endif
}

TEST(JobsEquivalence, ProgressCallbackCountsEveryRun) {
  SweepOptions opts;
  opts.runs = 6;
  opts.master_seed = 3;
  opts.jobs = 4;
  // run_sweep serializes progress calls, so plain captures are safe and
  // `done` must arrive strictly 1..runs even with 4 workers finishing in
  // arbitrary order.
  int last_done = 0;
  int last_total = 0;
  bool monotone = true;
  opts.progress = [&](int done, int total) {
    monotone = monotone && done == last_done + 1;
    last_done = done;
    last_total = total;
  };
  run_sweep(opts);
  EXPECT_EQ(last_done, 6);
  EXPECT_EQ(last_total, 6);
  EXPECT_TRUE(monotone);
}

TEST(Replay, StaleReproIsReportedNonZero) {
  // The committed corpus entries are clean by design (their bugs are
  // fixed), which is exactly the "no longer reproduces" shape --replay must
  // flag: default convention exits non-zero, --expect-clean exits 0.
  const ReplayOutcome clean{ReplayOutcome::Status::kClean, {}};
  EXPECT_EQ(replay_exit_code(clean, /*expect_clean=*/false), 1);
  EXPECT_EQ(replay_exit_code(clean, /*expect_clean=*/true), 0);
  const ReplayOutcome repro{ReplayOutcome::Status::kReproduced, "detail"};
  EXPECT_EQ(replay_exit_code(repro, /*expect_clean=*/false), 0);
  EXPECT_EQ(replay_exit_code(repro, /*expect_clean=*/true), 1);
  EXPECT_EQ(replay_exit_code({ReplayOutcome::Status::kUnreadable, {}}, false), 2);
  EXPECT_EQ(replay_exit_code({ReplayOutcome::Status::kParseError, {}}, true), 2);
}

TEST(Replay, ScenarioFileRoundTripsThroughTheOracleBattery) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "hpn_replay_exit_test";
  std::filesystem::create_directories(dir);

  // A violation that reproduces from scenario text alone: a fault-free
  // flow far too large to finish inside the engines' 8 s horizon, so the
  // fluid and packet phases report it still active.
  Scenario stuck;
  stuck.seed = 424242;
  stuck.topology = TopologyKind::kTinyClos;
  stuck.size_knob = 2;
  stuck.wiring = 1;
  stuck.flows = {{0, 1, 1'000'000'000'000, 0.01}};
  const std::filesystem::path stuck_path = dir / "stuck.scenario";
  {
    std::ofstream os(stuck_path);
    os << stuck.to_text();
  }
  const ReplayOutcome reproduced = replay_scenario_file(stuck_path.string());
  EXPECT_EQ(reproduced.status, ReplayOutcome::Status::kReproduced);
  EXPECT_NE(reproduced.detail.find("still active"), std::string::npos)
      << reproduced.detail;

  // A clean scenario: tiny flow, completes everywhere.
  Scenario healthy = stuck;
  healthy.flows = {{0, 1, 65'536, 100.0}};
  const std::filesystem::path healthy_path = dir / "healthy.scenario";
  {
    std::ofstream os(healthy_path);
    os << healthy.to_text();
  }
  const ReplayOutcome clean = replay_scenario_file(healthy_path.string());
  EXPECT_EQ(clean.status, ReplayOutcome::Status::kClean);

  EXPECT_EQ(replay_scenario_file((dir / "missing.scenario").string()).status,
            ReplayOutcome::Status::kUnreadable);
  const std::filesystem::path garbage_path = dir / "garbage.scenario";
  {
    std::ofstream os(garbage_path);
    os << "not a scenario\n";
  }
  EXPECT_EQ(replay_scenario_file(garbage_path.string()).status,
            ReplayOutcome::Status::kParseError);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hpn::fuzz
