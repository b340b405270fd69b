// Shared scaffolding for the per-figure/table harness binaries.
#pragma once

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "exec/parallel.h"
#include "metrics/table.h"
#include "metrics/trace.h"

namespace hpn::bench {

inline constexpr const char* kResultsDir = "results";

/// Directory emit() writes CSVs to. Args::parse points it at
/// results/smoke/ (not committed) for a `--smoke` run, so a smoke table
/// never replaces a committed full-scale CSV (perfbench `fleet` checks its
/// rows against results/bench_cluster.csv).
inline std::string csv_dir = kResultsDir;

/// Common harness flags, parsed from main()'s argv:
///   --smoke          tiny-scale run for the ctest smoke suite (CI bit-rot
///                    detection, not paper numbers); CSVs go to
///                    results/smoke/
///   --jobs N         run independent sweep cases on N threads (default 1;
///                    table rows and CSVs are identical at any job count)
///   --trace <path>   export the simulation trace (.json => Chrome format);
///                    only benches that export one pass `takes_trace`
///
/// Parsing is strict: an unknown flag (including `--trace` where nothing
/// reads it), a positional argument, a missing value, or a non-numeric
/// count prints a usage line to stderr and exits 2 instead of being
/// silently ignored (a typo'd `--smok` used to run the full-scale bench in
/// CI).
struct Args {
  bool smoke = false;
  std::string trace_path;
  int jobs = 1;

  static Args parse(int argc, char** argv, bool takes_trace = false) {
    const auto fail = [&](const std::string& why) {
      std::cerr << "error: " << why << "\n"
                << "usage: " << (argc > 0 ? argv[0] : "bench") << " [--smoke] [--jobs N]"
                << (takes_trace ? " [--trace <path>]" : "") << "\n";
      std::exit(2);
    };
    const auto need_value = [&](int& i, const char* flag) -> const char* {
      if (i + 1 >= argc) fail(std::string{"missing value for "} + flag);
      return argv[++i];
    };
    const auto parse_int = [&](const char* flag, const char* text) {
      char* end = nullptr;
      const long v = std::strtol(text, &end, 10);
      if (end == text || *end != '\0') {
        fail(std::string{flag} + " wants an integer, got '" + text + "'");
      }
      return static_cast<int>(v);
    };
    Args a;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--smoke") == 0) {
        a.smoke = true;
        csv_dir = std::string{kResultsDir} + "/smoke";
      } else if (takes_trace && std::strcmp(argv[i], "--trace") == 0) {
        a.trace_path = need_value(i, "--trace");
      } else if (std::strcmp(argv[i], "--jobs") == 0) {
        a.jobs = parse_int("--jobs", need_value(i, "--jobs"));
        if (a.jobs < 1) fail("--jobs must be >= 1");
      } else {
        fail(argv[i][0] == '-' ? std::string{"unknown flag '"} + argv[i] + "'"
                               : std::string{"unexpected argument '"} + argv[i] + "'");
      }
    }
    return a;
  }
};

/// Parameter-sweep helper: run `fn(case)` for every case on `jobs` workers
/// and return the results *in case order*, so tables and CSVs assembled
/// from them are byte-identical regardless of --jobs. Each case must be an
/// independent simulation — build its own topology/Simulator inside `fn`,
/// share nothing mutable across cases.
template <typename Case, typename Fn>
auto sweep(const std::vector<Case>& cases, int jobs, Fn&& fn) {
  return exec::parallel_map(jobs, cases.size(), [&](std::size_t i) { return fn(cases[i]); });
}

inline void banner(const std::string& experiment, const std::string& claim) {
  std::cout << "\n=== " << experiment << " ===\n"
            << "paper: " << claim << "\n\n";
}

inline void emit(const metrics::Table& table, const std::string& csv_name) {
  table.print(std::cout);
  const std::string path = table.save_csv(csv_dir, csv_name);
  std::cout << "[csv] " << path << "\n";
}

/// Export the tracer to `path` if set (after the run finished). Returns
/// false if the file could not be written; the bench must then exit 1.
[[nodiscard]] inline bool export_trace(const metrics::Tracer& tracer, const std::string& path) {
  if (path.empty()) return true;
  if (!tracer.save(path)) {
    std::cerr << "error: cannot write trace " << path << "\n";
    return false;
  }
  std::cout << "[trace] " << path << " (" << tracer.size() << " events, " << tracer.dropped()
            << " dropped)\n";
  return true;
}

}  // namespace hpn::bench
