// Differential suite for the scenario text codec: Scenario::from_text (a
// string_view cursor with std::from_chars) and Scenario::to_text (to_chars)
// against the stream-based codec they replaced, kept verbatim in
// tests/support/reference_scenario_parser.h.
//
// For every input both parsers must agree on accept or reject and on the
// exact error string; accepted scenarios must be equal down to the bits of
// every double (so -0.0 and 0.0 differ), and both writers must print the
// same bytes. Inputs: the malformed corpus, random_scenario round trips, a
// Pod-scale kHpnPod base, the regression corpus, every numeric field
// swapped for each edge token, and a seeded mutation fuzz.
#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/text.h"
#include "gtest/gtest.h"
#include "scenario/scenario.h"
#include "tests/fuzz/generator.h"
#include "tests/support/reference_scenario_parser.h"

namespace hpn::fuzz {
namespace {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::filesystem::path> scenario_files(const char* dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".scenario") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// First field where a and b differ, doubles compared by bit pattern;
/// empty when they are bit-equal.
std::string first_difference(const Scenario& a, const Scenario& b) {
  if (a.seed != b.seed || a.topology != b.topology || a.size_knob != b.size_knob ||
      a.wiring != b.wiring) {
    return "header fields";
  }
  if (a.flows.size() != b.flows.size()) return "flow count";
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    const ScenarioFlow& x = a.flows[i];
    const ScenarioFlow& y = b.flows[i];
    if (x.src != y.src || x.dst != y.dst || x.size_bytes != y.size_bytes ||
        std::bit_cast<std::uint64_t>(x.cap_gbps) != std::bit_cast<std::uint64_t>(y.cap_gbps)) {
      return "flow " + std::to_string(i);
    }
  }
  if (a.faults != b.faults) return "faults";
  if (a.jobs != b.jobs) return "jobs";
  return {};
}

/// Parses `text` with both codecs and reports any disagreement.
::testing::AssertionResult codecs_agree(const std::string& text) {
  std::string error;
  std::string ref_error;
  const auto got = Scenario::from_text(text, &error);
  const auto want = reference::scenario_from_text(text, &ref_error);
  if (got.has_value() != want.has_value()) {
    return ::testing::AssertionFailure()
           << (got ? "accepted" : "rejected ('" + error + "')") << " where the stream parser "
           << (want ? "accepts" : "rejects ('" + ref_error + "')");
  }
  if (!got) {
    if (error != ref_error) {
      return ::testing::AssertionFailure()
             << "error '" << error << "', stream parser '" << ref_error << "'";
    }
    return ::testing::AssertionSuccess();
  }
  if (const std::string diff = first_difference(*got, *want); !diff.empty()) {
    return ::testing::AssertionFailure() << "parsed scenarios differ at " << diff;
  }
  if (got->to_text() != reference::scenario_to_text(*want)) {
    return ::testing::AssertionFailure() << "to_text differs from the stream writer";
  }
  return ::testing::AssertionSuccess();
}

/// Tokens where from_chars and `istream >>` part ways, plus the boundaries
/// of every numeric field.
const std::vector<std::string>& edge_tokens() {
  static const std::vector<std::string> kTokens = {
      "+5", "+.5", "-.5", ".5", "5.", ".", "+", "-", "+-5", "-+5", "--5", "++5",
      "inf", "-inf", "+inf", "nan", "-nan", "infinity", "INF", "NaN", "nan(1)",
      "1e-400", "-1e-400", "+1e-400", "1e400", "-1e400", "1e", "1e+", "1e-", "1E5",
      "1.e5", "1e5e", "1e5.5", "1.5.5", ".e5", "e5", "-e5", "0x10", "0x1p3", "00",
      "007", "-0", "+0", "0", "-0.0", "0e0", "1e-310", "4.9e-324",
      "2.4703282292062327e-324", "2.4703282292062328e-324", "1.7976931348623157e308",
      "1.7976931348623159e308", "0.000000000000000000000000000001e-300",
      "12345678901234567890123456789e300", "1e-99999999999999999999",
      "1e99999999999999999999", "9223372036854775807", "9223372036854775808",
      "-9223372036854775808", "-9223372036854775809", "18446744073709551615",
      "18446744073709551616", "4294967295", "4294967296", "99999999999999999999999",
      "100.5", "100-5", "100+5", "5x", "1,5", "1_000", "10000", "10000.000000000001",
      "9999.9999999999999", "1e4", "0.1", "25", "\x85", "5\xa0"};
  return kTokens;
}

TEST(ScenarioParserDifferential, MalformedCorpus) {
  const auto files = scenario_files(HPN_FUZZ_MALFORMED_DIR);
  ASSERT_GE(files.size(), 20u);
  for (const auto& file : files) {
    EXPECT_TRUE(codecs_agree(read_file(file))) << file.filename();
  }
}

TEST(ScenarioParserDifferential, RegressionCorpusParsesAndPrintsTheSame) {
  const auto files = scenario_files(HPN_FUZZ_REGRESSION_DIR);
  ASSERT_FALSE(files.empty());
  for (const auto& file : files) {
    const std::string text = read_file(file);
    EXPECT_TRUE(codecs_agree(text)) << file.filename();
    const auto s = Scenario::from_text(text);
    ASSERT_TRUE(s.has_value()) << file.filename();
    EXPECT_EQ(s->to_text(), reference::scenario_to_text(*s)) << file.filename();
  }
}

TEST(ScenarioParserDifferential, RandomScenarioRoundTrips) {
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    Scenario s = random_scenario(seed);
    if (seed % 3 == 0) ensure_jobs(s);
    const std::string text = s.to_text();
    EXPECT_EQ(text, reference::scenario_to_text(s)) << "seed " << seed;
    EXPECT_TRUE(codecs_agree(text)) << "seed " << seed;
  }
}

TEST(ScenarioParserDifferential, HpnPodBase) {
  // bench_serve's 128 x 16 base: 16384 segment-local ring flows with
  // distinct caps, plus a few caps that need all 17 digits.
  Scenario s;
  s.seed = 20260808;
  s.topology = TopologyKind::kHpnPod;
  s.size_knob = 128;
  s.wiring = 16;
  const std::uint32_t eps_per_seg = 256;
  for (std::uint32_t i = 0; i < 16384; ++i) {
    const std::uint32_t seg = i / eps_per_seg;
    s.flows.push_back({i, seg * eps_per_seg + (i + 1) % eps_per_seg, std::int64_t{1} << 20,
                       40.0 + (i % 17) + (i % 7 == 0 ? 1.0 / 3.0 : 0.0)});
  }
  s.faults.push_back({ScenarioFault::Kind::kLinkFlap, 500000, 2, 1000000});
  const std::string text = s.to_text();
  EXPECT_EQ(text, reference::scenario_to_text(s));
  EXPECT_TRUE(codecs_agree(text));
  const auto parsed = Scenario::from_text(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(first_difference(*parsed, s), "");
}

TEST(ScenarioParserDifferential, EdgeTokenInEveryNumericField) {
  // One line per field position; the edge token replaces that field.
  const std::vector<std::string> templates = {
      "seed @", "size @", "wiring @", "flow @ 1 1000 25", "flow 0 @ 1000 25",
      "flow 0 1 @ 25", "flow 0 1 1000 @", "fault link_fail @ 0 5", "fault link_flap 10 @ 5",
      "fault tor_crash 10 0 @", "job @ 2 3", "job 0 @ 3", "job 0 2 @"};
  int cases = 0;
  for (const std::string& tmpl : templates) {
    for (const std::string& token : edge_tokens()) {
      for (const char* tail : {"", " x", " 7", "  \t"}) {
        std::string line = tmpl;
        line.replace(line.find('@'), 1, token);
        const std::string text = "hpnsim-scenario v1\ntopology tiny_clos\n" + line + tail +
                                 "\nend\n";
        EXPECT_TRUE(codecs_agree(text)) << "line '" << line << tail << "'";
        ++cases;
      }
    }
  }
  EXPECT_GT(cases, 3000);
}

TEST(ScenarioParserDifferential, SeededMutationFuzz) {
  std::vector<std::string> bases;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Scenario s = random_scenario(seed);
    ensure_jobs(s);
    if (s.flows.size() > 6) s.flows.resize(6);
    bases.push_back(s.to_text());
  }
  bases.push_back(
      "# hand-edited\r\nhpnsim-scenario  v1\r\nseed 3\ntopology\thpn_segment\nsize 4\n"
      "wiring 2\nflow 0 1 +1000 .5\nflow 1 0 2e3 1e1\nfault link_flap 10 0 5\n"
      "fault tor_crash 20 1 0\njob 0 2 3\nend # done\n\n");
  const std::string inject = " \t\v\f\r#\n+-.eE0123456789xin\x85";
  Rng rng{20261017};
  const auto pick = [&rng](std::size_t n) { return static_cast<std::size_t>(rng.uniform_index(n)); };
  int accepted = 0;
  constexpr int kRuns = 20000;
  for (int run = 0; run < kRuns; ++run) {
    std::string input = bases[pick(bases.size())];
    const int mutations = 1 + static_cast<int>(pick(2));
    for (int m = 0; m < mutations && !input.empty(); ++m) {
      switch (pick(7)) {
        case 0: {  // swap a numeric token for an edge token
          std::vector<std::size_t> starts;
          for (std::size_t i = 0; i < input.size(); ++i) {
            const bool boundary = i == 0 || text::is_space(input[i - 1]);
            const char c = input[i];
            if (boundary && ((c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.')) {
              starts.push_back(i);
            }
          }
          if (starts.empty()) break;
          const std::size_t at = starts[pick(starts.size())];
          std::size_t stop = at;
          while (stop < input.size() && !text::is_space(input[stop])) ++stop;
          input.replace(at, stop - at, edge_tokens()[pick(edge_tokens().size())]);
          break;
        }
        case 1:  // inject a whitespace or syntax byte anywhere
          input.insert(pick(input.size() + 1), 1, inject[pick(inject.size())]);
          break;
        case 2:  // a comment from a random byte to the end of its line
          input.insert(pick(input.size() + 1), pick(2) == 0 ? "#" : " # note");
          break;
        case 3: {  // a blank (or whitespace-only) line
          const std::size_t nl = input.find('\n', pick(input.size()));
          const char* blank[] = {"\n", " \t\n", "\r\n", "\v\n", "\f\n"};
          input.insert(nl == std::string::npos ? input.size() : nl + 1, blank[pick(5)]);
          break;
        }
        case 4: {  // duplicate a line
          const std::size_t from = input.rfind('\n', pick(input.size()));
          const std::size_t begin = from == std::string::npos ? 0 : from + 1;
          const std::size_t end = input.find('\n', begin);
          const std::size_t len = (end == std::string::npos ? input.size() : end + 1) - begin;
          input.insert(begin, input.substr(begin, len));
          break;
        }
        case 5:  // truncate at a random byte
          input.resize(pick(input.size() + 1));
          break;
        default:  // delete a byte
          input.erase(pick(input.size()), 1);
          break;
      }
    }
    const auto verdict = codecs_agree(input);
    EXPECT_TRUE(verdict) << "run " << run << ", input:\n" << input;
    if (!verdict) break;  // one repro is enough
    accepted += Scenario::from_text(input).has_value() ? 1 : 0;
  }
  // Both outcomes must be well represented, or the fuzz tests one branch.
  EXPECT_GT(accepted, kRuns / 10);
  EXPECT_LT(accepted, kRuns * 9 / 10);
}

}  // namespace
}  // namespace hpn::fuzz
