// Tracer exporters against the stream exporters they replaced
// (tests/support/reference_tracer_export.h): write_csv, write_chrome_json
// and save must produce the same bytes on random traces over every event
// kind, every class of double the `%.9g`/`%.6g` fields print, timestamps at
// the int64 limits, ids at both ends of the range, null and non-null
// labels, wrapped and unwrapped rings, and traces long enough to span many
// output chunks.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/trace.h"
#include "tests/support/reference_tracer_export.h"

namespace hpn::metrics {
namespace {

constexpr std::size_t kKinds = static_cast<std::size_t>(TraceEventKind::kJobEnd) + 1;

/// Values each exported field must print exactly as printf does.
std::vector<double> edge_values() {
  using L = std::numeric_limits<double>;
  std::vector<double> v = {0.0,
                           -0.0,
                           L::infinity(),
                           -L::infinity(),
                           L::quiet_NaN(),
                           std::copysign(L::quiet_NaN(), -1.0),
                           L::denorm_min(),
                           -L::denorm_min(),
                           L::min() / 3.0,
                           L::min(),
                           L::max(),
                           L::lowest(),
                           1.0,
                           0.1,
                           4096.0,
                           1e6};
  // Where %.9g and %.6g round up to the next power of ten and may switch to
  // exponent notation, a few ulps either side.
  for (const int p : {6, 9}) {
    for (const int e : {-5, -4, -1, 0, 3, 5, 6, 8, 9, 12}) {
      double x = (1.0 - 0.5 * std::pow(10.0, -p)) * std::pow(10.0, e);
      for (int k = 0; k < 3; ++k) x = std::nextafter(x, -L::infinity());
      for (int k = 0; k < 7; ++k) {
        v.push_back(x);
        v.push_back(-x);
        x = std::nextafter(x, L::infinity());
      }
    }
  }
  // Exact ties one digit past the 6th and the 9th significant digit, which
  // round to even.
  for (const double tie : {1000.125, 1000.375, 1000000.125, 1000000.375}) {
    v.push_back(tie);
    v.push_back(-tie);
  }
  return v;
}

double random_value(std::mt19937_64& rng, const std::vector<double>& edges) {
  switch (rng() % 4) {
    case 0: return edges[rng() % edges.size()];
    case 1: return std::bit_cast<double>(rng());  // every class, both signs
    case 2: return std::ldexp(static_cast<double>(rng() >> (11 + rng() % 53)),
                              -static_cast<int>(rng() % 40));  // short fractions
    default: return std::uniform_real_distribution<double>{0.0, 1e9}(rng);
  }
}

std::uint32_t random_id(std::mt19937_64& rng) {
  switch (rng() % 5) {
    case 0: return 0;
    case 1: return 0xFFFFFFFEu;
    case 2: return kTraceNoId;
    case 3: return static_cast<std::uint32_t>(rng());
    default: return static_cast<std::uint32_t>(rng() % 64);
  }
}

std::int64_t random_ns(std::mt19937_64& rng, std::int64_t& now) {
  using L = std::numeric_limits<std::int64_t>;
  switch (rng() % 8) {
    case 0: return L::max();
    case 1: return L::min();
    case 2: return static_cast<std::int64_t>(rng());  // any sign, any size
    default:
      now += static_cast<std::int64_t>(rng() % 5'000);
      return now;
  }
}

/// A tracer holding `events` random records in a ring of `capacity`.
void fill(Tracer& t, std::mt19937_64& rng, std::size_t capacity, std::size_t events) {
  static const char* const kLabels[] = {"all_reduce", "all_gather", "x", ""};
  const std::vector<double> edges = edge_values();
  t.enable(capacity);
  std::int64_t now = 0;
  for (std::size_t i = 0; i < events; ++i) {
    const auto kind = static_cast<TraceEventKind>(i < kKinds ? i : rng() % kKinds);
    const std::int64_t ns = random_ns(rng, now);
    const std::uint32_t a = random_id(rng);
    const std::uint32_t b = random_id(rng);
    const double value = random_value(rng, edges);
    const char* label = rng() % 2 == 0 ? nullptr : kLabels[rng() % 4];
    t.record(TimePoint::at_nanos(ns), kind, a, b, value, label);
  }
}

std::string csv_of(const Tracer& t) {
  std::ostringstream os;
  t.write_csv(os);
  return os.str();
}

std::string json_of(const Tracer& t) {
  std::ostringstream os;
  t.write_chrome_json(os);
  return os.str();
}

std::string reference_csv(const Tracer& t) {
  std::ostringstream os;
  reference::write_csv(t, os);
  return os.str();
}

std::string reference_json(const Tracer& t) {
  std::ostringstream os;
  reference::write_chrome_json(t, os);
  return os.str();
}

/// First differing line, for a readable failure.
std::string first_diff(const std::string& got, const std::string& want) {
  std::size_t i = 0;
  while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
  const std::size_t line = want.rfind('\n', i == 0 ? 0 : i - 1);
  const std::size_t from = line == std::string::npos ? 0 : line + 1;
  return "at byte " + std::to_string(i) + ": got '" + got.substr(from, 120) + "', want '" +
         want.substr(from, 120) + "'";
}

TEST(TracerExportTest, MatchesStreamExportersOverRandomTraces) {
  // Capacities and counts: empty, unwrapped, exactly full, wrapped, and
  // one trace long enough to span dozens of output chunks.
  struct Shape {
    std::size_t capacity, events;
  };
  constexpr Shape kShapes[] = {{8, 0},     {64, 19},   {64, 64},     {64, 200},
                               {1000, 700}, {4096, 5000}, {1u << 20, 40'000}};
  std::mt19937_64 rng{0x7EACE};
  for (int round = 0; round < 6; ++round) {
    for (const Shape& s : kShapes) {
      Tracer t;
      fill(t, rng, s.capacity, s.events);
      const std::string csv = csv_of(t);
      const std::string want_csv = reference_csv(t);
      ASSERT_TRUE(csv == want_csv) << "csv, capacity " << s.capacity << " events "
                                   << s.events << " " << first_diff(csv, want_csv);
      const std::string json = json_of(t);
      const std::string want_json = reference_json(t);
      ASSERT_TRUE(json == want_json) << "json, capacity " << s.capacity << " events "
                                     << s.events << " " << first_diff(json, want_json);
    }
  }
}

TEST(TracerExportTest, SaveWritesTheReferenceBytes) {
  std::mt19937_64 rng{2024};
  Tracer t;
  fill(t, rng, 1u << 12, 9000);  // wrapped, several chunks per file
  ASSERT_GT(t.dropped(), 0u);
  const auto read = [](const std::string& path) {
    std::ifstream f{path, std::ios::binary};
    return std::string{std::istreambuf_iterator<char>{f}, std::istreambuf_iterator<char>{}};
  };
  const std::string csv_path = ::testing::TempDir() + "trace_export_test.csv";
  ASSERT_TRUE(t.save(csv_path));
  EXPECT_TRUE(read(csv_path) == reference_csv(t));
  std::remove(csv_path.c_str());
  const std::string json_path = ::testing::TempDir() + "trace_export_test.json";
  ASSERT_TRUE(t.save(json_path));
  EXPECT_TRUE(read(json_path) == reference_json(t));
  std::remove(json_path.c_str());
}

}  // namespace
}  // namespace hpn::metrics
