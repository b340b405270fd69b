// perfbench_driver --workload <fleet|fig15_train|whatif> --seed <n>
//                  --seconds <s> --trace <0|1> [--root <dir>] [--scratch <dir>]
//                  [--tiny] [--break-expected]
//
// Runs one workload in this process, single-threaded, and prints as its last
// line {"correct", "attempted", "failed", "metrics"}. perfbench/run.py builds
// this binary and is the entry point; see perfbench/README.md.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <queue>
#include <random>
#include <stdexcept>
#include <unordered_map>

#include "harness.h"

namespace perfbench {

void Report::metric(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Report::check(bool ok, std::string_view what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cout << "FAIL " << what << "\n";
  }
}

void Report::digest(std::string_view label, std::uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash));
  std::cout << "digest " << label << " " << buf << "\n";
}

void Report::print_json() const {
  std::cout << "{\"correct\": " << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
            << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    std::cout << (i ? ", " : "") << "\"" << metrics_[i].name << "\": {\"value\": " << buf
              << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

std::string expected(const Options& opts, std::string value) {
  if (opts.break_expected) value += value.empty() ? "?" : "0";
  return value;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Tail supported_tail(std::vector<double> v) {
  if (v.size() < 11) return {};
  std::sort(v.begin(), v.end());
  // Sample i (0-based) has n-1-i samples above it; the highest one with ten
  // beyond it is i = n-11, at percentile 100*i/(n-1) of the sorted sample.
  const std::size_t i = v.size() - 11;
  return {v[i], 100.0 * static_cast<double>(i) / static_cast<double>(v.size() - 1)};
}

namespace {
volatile double speed_kernel_sink = 0.0;  // keeps the kernel's work observable
}  // namespace

void HostSpeed::sample() {
  const auto t0 = Clock::now();
  std::mt19937_64 rng{42};
  std::vector<double> v(400'000);
  std::unordered_map<std::uint64_t, double> m;
  double acc = 0.0;
  for (int round = 0; round < 3; ++round) {
    for (double& x : v) x = static_cast<double>(rng() % 1'000'000);
    std::sort(v.begin(), v.end());
    for (int i = 0; i < 200'000; ++i) m[rng() % 100'000] += 1.0;
    std::priority_queue<std::uint64_t> pq;
    for (int i = 0; i < 200'000; ++i) {
      pq.push(rng());
      if (pq.size() > 1000) pq.pop();
    }
    acc += v[1000] + static_cast<double>(m.size()) + static_cast<double>(pq.top());
  }
  speed_kernel_sink = acc;
  samples_.push_back(seconds_since(t0));
}

void report_end_to_end(Report& report, std::string_view workload,
                       const std::vector<double>& wall_s, const std::vector<double>& setup_s,
                       double ops_per_rep, const HostSpeed& speed) {
  const double k = speed.to_reference();
  std::cout << workload << ": " << wall_s.size() << " repetitions, median " << median(wall_s)
            << " s, set-up " << median(setup_s) << " s (host seconds); speed kernel "
            << speed.kernel_s() << " s vs " << HostSpeed::kReferenceS
            << " s reference, so times are reported x" << k << "\n";
  report.metric("wall_s", k * median(wall_s), "s");
  report.metric("setup_s", k * median(setup_s), "s");
  report.metric("ops_per_s", ops_per_rep / (k * median(wall_s)), "1/s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in{path};
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why
            << "\nusage: perfbench_driver --workload <fleet|fig15_train|whatif> --seed <n>"
               " --seconds <s> --trace <0|1> [--root <dir>] [--scratch <dir>] [--tiny]"
               " [--break-expected]\n";
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = std::stoi(value()) != 0;
      } else if (a == "--root") {
        o.root = value();
      } else if (a == "--scratch") {
        o.scratch = value();
      } else if (a == "--tiny") {
        o.tiny = true;
      } else if (a == "--break-expected") {
        o.break_expected = true;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opts = parse(argc, argv);
  perfbench::Report report;
  try {
    if (opts.workload == "fleet") {
      perfbench::run_fleet(opts, report);
    } else if (opts.workload == "fig15_train") {
      perfbench::run_fig15(opts, report);
    } else if (opts.workload == "whatif") {
      perfbench::run_whatif(opts, report);
    } else {
      usage("unknown workload '" + opts.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << opts.workload << " aborted: " << e.what() << "\n";
    return 1;
  }
  report.print_json();
  return 0;
}
