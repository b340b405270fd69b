// hpnsim_fuzz: standalone scenario-fuzzing driver.
//
//   hpnsim_fuzz --runs 500 --jobs 4 --seed 1 --out tests/fuzz/regressions
//   hpnsim_fuzz --replay path/to/repro.scenario [--expect-clean]
//   hpnsim_fuzz --runs 120 --jobs 8 --csv sweep.csv
//
// Scenario i draws from seed `master ^ golden*(i+1)`, so results are a
// function of (--seed, --runs) alone. Runs execute through
// exec::parallel_for (--jobs threads), and everything the driver emits —
// stdout ordering, repro file bytes, the --csv aggregate — is bit-identical
// regardless of --jobs: results are aggregated by run index once every run
// has returned, and only the progress ticker (stderr) follows completion
// order. On failure the driver greedily shrinks each scenario and writes a
// `.scenario` repro file that replays with --replay.
//
// --replay exits 0 when the repro still reproduces a violation and 1 when
// it runs clean (a stale repro must fail loudly, not silently pass);
// --expect-clean flips that for corpus entries whose bug has been fixed.
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "tests/fuzz/fuzz_harness.h"
#include "tests/fuzz/generator.h"

namespace {

struct Args {
  int runs = 500;
  int jobs = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::uint64_t seed = 1;
  std::string out = "fuzz-repros";
  std::string csv;
  std::string replay;
  std::string topology;  ///< Force every scenario onto one topology kind.
  bool jobsmix = false;  ///< Guarantee a job mix: every scenario runs the
                         ///< cluster-scheduler phase.
  bool expect_clean = false;
  bool ok = true;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << flag << "\n";
        a.ok = false;
        return "0";
      }
      return argv[++i];
    };
    if (flag == "--runs") {
      a.runs = std::atoi(value());
    } else if (flag == "--jobs") {
      a.jobs = std::atoi(value());
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value(), nullptr, 10);
    } else if (flag == "--out") {
      a.out = value();
    } else if (flag == "--csv") {
      a.csv = value();
    } else if (flag == "--replay") {
      a.replay = value();
    } else if (flag == "--topology") {
      a.topology = value();
    } else if (flag == "--jobsmix") {
      a.jobsmix = true;
    } else if (flag == "--expect-clean") {
      a.expect_clean = true;
    } else {
      std::cerr << "unknown flag " << flag << "\n"
                << "usage: hpnsim_fuzz [--runs N] [--jobs N] [--seed S] "
                   "[--topology KIND] [--jobsmix] "
                   "[--out DIR] [--csv FILE] [--replay FILE [--expect-clean]]\n";
      a.ok = false;
    }
  }
  if (a.runs < 1 || a.jobs < 1) a.ok = false;
  return a;
}

int replay_file(const std::string& path, bool expect_clean,
                const hpn::fuzz::RunOptions& run) {
  const hpn::fuzz::ReplayOutcome outcome =
      hpn::fuzz::replay_scenario_file(path, run);
  switch (outcome.status) {
    case hpn::fuzz::ReplayOutcome::Status::kUnreadable:
      std::cerr << "cannot read " << path << "\n";
      break;
    case hpn::fuzz::ReplayOutcome::Status::kParseError:
      std::cerr << path << " is not a valid .scenario file\n";
      break;
    case hpn::fuzz::ReplayOutcome::Status::kReproduced:
      std::cout << "replay reproduces a violation: " << path << "\n"
                << outcome.detail << "\n";
      break;
    case hpn::fuzz::ReplayOutcome::Status::kClean:
      std::cout << "replay clean: " << path
                << " no longer reproduces a violation\n";
      break;
  }
  return hpn::fuzz::replay_exit_code(outcome, expect_clean);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (!args.ok) return 2;
  hpn::fuzz::RunOptions run;
  if (!args.replay.empty()) return replay_file(args.replay, args.expect_clean, run);

  hpn::fuzz::SweepOptions opts;
  opts.runs = args.runs;
  opts.jobs = args.jobs;
  opts.master_seed = args.seed;
  opts.run = run;
  opts.ensure_jobs = args.jobsmix;
  if (!args.topology.empty()) {
    const auto kind = hpn::fuzz::topology_kind_from(args.topology);
    if (!kind) {
      std::cerr << "unknown topology '" << args.topology << "'\n";
      return 2;
    }
    opts.only_topology = *kind;
  }
  // Progress goes to stderr: it follows completion order, so it is the one
  // stream that is allowed to differ between job counts.
  opts.progress = [](int done, int total) {
    if (done % 100 == 0 || done == total) {
      std::cerr << done << "/" << total << " scenarios done\n";
    }
  };

  const hpn::fuzz::SweepResult sweep = hpn::fuzz::run_sweep(opts);

  if (!args.csv.empty()) {
    std::ofstream os(args.csv);
    if (!os.good()) {
      std::cerr << "cannot write " << args.csv << "\n";
      return 2;
    }
    os << sweep.csv;
    std::cout << "[csv] " << args.csv << "\n";
  }

  if (sweep.ok()) {
    // The job count stays off stdout: stdout is bit-identical across --jobs.
    std::cout << "all " << args.runs << " scenarios clean (seed " << args.seed << ")\n";
    return 0;
  }

  std::cout << sweep.failures.size() << " failing scenario(s); shrinking...\n";
  for (const hpn::fuzz::SweepFailure& f : sweep.failures) {
    std::cout << "run " << f.index << " (seed " << f.seed << ") FAILED:\n"
              << f.detail << "\n";
    const hpn::fuzz::Scenario shrunk = hpn::fuzz::shrink(
        f.scenario, [&run](const hpn::fuzz::Scenario& c) {
          return !hpn::fuzz::run_scenario(c, run).ok;
        });
    const std::string path = hpn::fuzz::write_repro(shrunk, args.out);
    const hpn::fuzz::RunResult r = hpn::fuzz::run_scenario(shrunk, run);
    std::cout << "wrote " << path << "\n"
              << (r.failure.empty() ? f.detail : r.failure) << "\n";
  }
  std::cout << "replay any repro with: hpnsim_fuzz --replay <file>\n";
  return 1;
}
