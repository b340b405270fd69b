// Shared plumbing of the benchmark driver: options, the run report (metrics,
// output checks, digests), timing and percentile helpers.
//
// Every workload follows one shape: repeat a fixed unit of work until the
// measuring window is spent, set up afresh before each repetition, and keep
// the median set-up (`setup_s`) and the median repetition (`wall_s`).
// Tracing is off in those runs; `--trace 1` runs a separate pass that times
// calls into each layer's public functions from outside and reports the
// per-layer metrics instead.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Checkout root: committed expected outputs live under <root>/results.
  std::string root = ".";
  /// Writable directory for exported traces (inside the checkout).
  std::string scratch = ".";
  /// Self-test scale: each workload shrunk to a fraction of a second.
  bool tiny = false;
  /// Self-test: corrupt every expected output before comparing, so each
  /// output check must fail and be counted.
  bool break_expected = false;
};

/// What one run prints: metrics by name and unit, plus the output checks.
/// `attempted` counts checked operations (simulations run, queries answered,
/// outputs compared); `failed` those that errored or produced wrong output.
class Report {
 public:
  void metric(std::string name, double value, std::string unit);
  /// A per-layer metric the workload exercises but that cannot be seen from
  /// outside the program: reported as -1 (0 means the layer is not used).
  void unobservable(std::string name) { metric(std::move(name), -1.0, "-"); }
  /// Count one checked operation; prints a FAIL line when `ok` is false.
  void check(bool ok, std::string_view what);
  /// Print a digest line of a workload's simulated outputs, so drift between
  /// two commits shows in the logs even when no expected file covers it.
  static void digest(std::string_view label, std::uint64_t hash);
  /// The last line of standard output.
  void print_json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The expected value a check compares against; under --break-expected a
/// character is changed so the comparison must fail.
std::string expected(const Options& opts, std::string value);

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

/// The highest percentile with at least ten samples beyond it (the tail the
/// sample supports), as (value, percentile); percentile 0 when n < 11.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
};
Tail supported_tail(std::vector<double> v);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// FNV-1a over bytes, chainable.
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = 0xcbf29ce484222325ULL);

/// Rows of a committed CSV (header included), or empty if unreadable.
std::vector<std::string> read_lines(const std::string& path);

/// How fast the host runs right now. The host is shared: for minutes at a
/// time other tenants slow every run here by 30-80%, with little steal time
/// to show for it. A fixed kernel (sorting, hashing, a heap; no simulator
/// code) is timed before every repetition, and the end-to-end times are
/// reported at the kernel's reference speed: host seconds x reference /
/// measured. Program changes move the workload, never the kernel, so this
/// same-run ratio keeps their effect and drops the host's.
class HostSpeed {
 public:
  /// The kernel's median time on a quiet 4-vCPU Xeon VM.
  static constexpr double kReferenceS = 0.155;

  /// Time the kernel once.
  void sample();
  [[nodiscard]] double kernel_s() const { return median(samples_); }
  /// Multiply host seconds by this to get reference seconds.
  [[nodiscard]] double to_reference() const { return kReferenceS / kernel_s(); }

 private:
  std::vector<double> samples_;
};

/// Repeat `rep` until `seconds` have elapsed and it ran at least `min_reps`
/// times, sampling `speed` before each repetition. Returns the number of
/// repetitions.
template <class Fn>
int repeat_for(double seconds, int min_reps, HostSpeed& speed, Fn&& rep) {
  const auto start = Clock::now();
  int reps = 0;
  while (reps < min_reps || seconds_since(start) < seconds) {
    speed.sample();
    rep(reps);
    ++reps;
  }
  return reps;
}

/// The end-to-end metrics every workload reports, from its repetitions'
/// host seconds, its set-ups' host seconds and the operations in one
/// repetition; prints the raw figures too.
void report_end_to_end(Report& report, std::string_view workload,
                       const std::vector<double>& wall_s, const std::vector<double>& setup_s,
                       double ops_per_rep, const HostSpeed& speed);

void run_fleet(const Options& opts, Report& report);
void run_fig15(const Options& opts, Report& report);
void run_whatif(const Options& opts, Report& report);

}  // namespace perfbench
