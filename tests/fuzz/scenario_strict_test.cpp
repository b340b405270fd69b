// Parser-hardening regression suite (the serve PR's bugfix satellite):
//
//  - every file in tests/fuzz/malformed/ must be REJECTED with its exact
//    pinned error message (these strings are protocol: the serve daemon and
//    hpnsim_fuzz --replay surface them verbatim, and a corrupted .scenario
//    must replay with exit 2, never "clean" exit 1);
//  - formatting leniency must be exactly comments/CRLF/blank-lines/extra
//    whitespace — all erased by canonical re-serialization, so textual
//    variants of one scenario hash identically (the serve cache key);
//  - parse -> serialize -> parse is a fixed point across random scenarios.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "scenario/scenario.h"
#include "tests/fuzz/fuzz_harness.h"

namespace hpn::fuzz {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string corpus_path(const std::string& name) {
  return std::string{HPN_FUZZ_MALFORMED_DIR} + "/" + name;
}

struct MalformedCase {
  const char* file;
  const char* expected_error;
};

// The malformed-input corpus, each file paired with its pinned message.
// Adding a file to tests/fuzz/malformed/ without a row here fails the
// coverage check below.
const std::vector<MalformedCase>& corpus() {
  static const std::vector<MalformedCase> kCases = {
      {"empty.scenario", "truncated scenario: missing header"},
      {"bad_header.scenario", "line 1: bad header (want 'hpnsim-scenario v1')"},
      {"truncated_missing_end.scenario", "truncated scenario: missing 'end'"},
      {"duplicate_seed.scenario", "line 4: duplicate 'seed'"},
      {"duplicate_topology.scenario", "line 4: duplicate 'topology'"},
      {"trailing_junk_flow.scenario", "line 5: trailing junk after 'flow'"},
      {"seed_overflow.scenario", "line 2: 'seed' does not fit in 64 bits"},
      {"size_overflow.scenario", "line 3: 'size' value out of range"},
      {"unknown_topology.scenario", "line 3: unknown topology 'moebius'"},
      {"unknown_key.scenario", "line 3: unknown key 'flows'"},
      {"negative_flow_size.scenario", "line 5: 'flow' size_bytes must be >= 0"},
      {"cap_out_of_range.scenario", "line 5: 'flow' cap_gbps out of range (0, 10000]"},
      {"content_after_end.scenario", "line 4: content after 'end'"},
      {"size_zero.scenario", "line 3: 'size' must be >= 1"},
      {"bad_fault_kind.scenario", "line 3: unknown fault kind 'meteor'"},
      {"negative_fault_time.scenario", "line 3: 'fault' times must be >= 0"},
      {"junk_after_end.scenario", "line 3: trailing junk after 'end'"},
      // Numeric syntax the parser does not take: no inf/nan spellings, an
      // exponent needs digits (and integers take none), and a cap that
      // underflows to 0 is out of range.
      {"cap_inf.scenario", "line 5: malformed 'flow' entry"},
      {"cap_dangling_exponent.scenario", "line 5: malformed 'flow' entry"},
      {"cap_underflow.scenario", "line 5: 'flow' cap_gbps out of range (0, 10000]"},
      {"size_bytes_exponent.scenario", "line 5: malformed 'flow' entry"},
  };
  return kCases;
}

TEST(ScenarioStrict, MalformedCorpusRejectedWithPinnedMessages) {
  for (const MalformedCase& c : corpus()) {
    const std::string text = read_file(corpus_path(c.file));
    std::string error;
    const auto s = Scenario::from_text(text, &error);
    EXPECT_FALSE(s.has_value()) << c.file << " parsed but must be rejected";
    EXPECT_EQ(error, c.expected_error) << c.file;
  }
}

TEST(ScenarioStrict, MalformedCorpusReplaysWithExitTwo) {
  // The regression that motivated this suite: a corrupted .scenario used to
  // parse leniently and replay "clean" (exit 1, reading as "fixed"); it
  // must be a parse error, exit 2, so CI can tell corruption from triage.
  RunOptions options;
  for (const MalformedCase& c : corpus()) {
    const ReplayOutcome outcome = replay_scenario_file(corpus_path(c.file), options);
    EXPECT_EQ(outcome.status, ReplayOutcome::Status::kParseError) << c.file;
    EXPECT_EQ(replay_exit_code(outcome, /*expect_clean=*/false), 2) << c.file;
    EXPECT_EQ(replay_exit_code(outcome, /*expect_clean=*/true), 2) << c.file;
  }
}

TEST(ScenarioStrict, EveryCorpusFileHasAPinnedRow) {
  // Directory listing vs. table: a new malformed file must pin its message.
  std::vector<std::string> missing;
  for (const auto& entry :
       std::filesystem::directory_iterator(HPN_FUZZ_MALFORMED_DIR)) {
    const std::string name = entry.path().filename().string();
    bool found = false;
    for (const MalformedCase& c : corpus()) found = found || name == c.file;
    if (!found) missing.push_back(name);
  }
  EXPECT_TRUE(missing.empty())
      << missing.size() << " corpus file(s) without a pinned message row, first: "
      << missing.front();
}

TEST(ScenarioStrict, FormattingVariantsShareCanonicalBytes) {
  const std::string canonical =
      "hpnsim-scenario v1\n"
      "seed 42\n"
      "topology tiny_clos\n"
      "size 2\n"
      "wiring 1\n"
      "flow 0 1 1000000 25\n"
      "fault link_fail 1000 0 0\n"
      "end\n";
  const std::string variant =
      "# capacity scenario, edited by hand\r\n"
      "hpnsim-scenario   v1\r\n"
      "\r\n"
      "seed 42   # the master seed\n"
      "   topology\ttiny_clos\n"
      "size 2\n"
      "wiring 1\n"
      "\n"
      "flow 0 1 1000000 25\n"
      "fault link_fail 1000 0 0\n"
      "end   # that's all\n"
      "\n"
      "# trailing commentary is fine after end\n";
  const auto a = Scenario::from_text(canonical);
  const auto b = Scenario::from_text(variant);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(a->to_text(), b->to_text());
  EXPECT_EQ(a->to_text(), canonical) << "canonical text must be a fixed point";
  EXPECT_EQ(fnv1a64(a->to_text()), fnv1a64(b->to_text()));
}

TEST(ScenarioStrict, SignedNumbersAreAFormattingVariant) {
  // A leading '+' is accepted on the signed and floating-point fields (not
  // on the unsigned recipe indices) and erased by canonical re-serialization.
  const std::string canonical =
      "hpnsim-scenario v1\n"
      "seed 42\n"
      "topology tiny_clos\n"
      "size 2\n"
      "wiring 1\n"
      "flow 0 1 1000000 25\n"
      "flow 1 0 1000 0.5\n"
      "fault link_fail 1000 0 0\n"
      "job 0 2 3\n"
      "end\n";
  const std::string variant =
      "hpnsim-scenario v1\n"
      "seed 42\n"
      "topology tiny_clos\n"
      "size 2\n"
      "wiring 1\n"
      "flow 0 1 +1000000 +25\n"
      "flow 1 0 +1000 +.5\n"
      "fault link_fail +1000 0 +0\n"
      "job +0 2 3\n"
      "end\n";
  const auto a = Scenario::from_text(canonical);
  const auto b = Scenario::from_text(variant);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(b->to_text(), canonical);
  std::string error;
  EXPECT_FALSE(Scenario::from_text("hpnsim-scenario v1\nsize +2\nend\n", &error));
  EXPECT_EQ(error, "line 2: malformed 'size' entry");
}

TEST(ScenarioStrict, ParseSerializeParseIsAFixedPoint) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Scenario s = random_scenario(seed);
    if (seed % 3 == 0) ensure_jobs(s);
    const std::string text = s.to_text();
    const auto parsed = Scenario::from_text(text);
    ASSERT_TRUE(parsed.has_value()) << "seed " << seed;
    EXPECT_EQ(*parsed, s) << "seed " << seed;
    EXPECT_EQ(parsed->to_text(), text) << "seed " << seed;
  }
}

TEST(ScenarioStrict, HpnPodRoundTripsButIsNeverDrawn) {
  Scenario s;
  s.seed = 9;
  s.topology = TopologyKind::kHpnPod;
  s.size_knob = 8;
  s.wiring = 2;
  s.flows.push_back({0, 5, 1 << 20, 100.0});
  const auto parsed = Scenario::from_text(s.to_text());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, s);
  // The fuzz draw distribution must not change under the serve PR: kHpnPod
  // is reserved for the daemon/bench, never drawn into sweeps or corpus.
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    EXPECT_NE(random_scenario(seed).topology, TopologyKind::kHpnPod) << seed;
  }
}

TEST(ScenarioStrict, HpnPodMaterializesAtHonestScale) {
  Scenario s;
  s.seed = 1;
  s.topology = TopologyKind::kHpnPod;
  s.size_knob = 8;   // hosts per segment
  s.wiring = 2;      // segments per pod
  const Materialized m = materialize(s);
  EXPECT_TRUE(m.lossless_safe);
  EXPECT_FALSE(m.endpoints.empty());
  EXPECT_FALSE(m.cables.empty());
  // 2 segments x 8 hosts, dual-ToR segment wiring: endpoints scale with
  // hosts (2 GPUs/host in this recipe).
  EXPECT_GE(m.endpoints.size(), 16u);
}

}  // namespace
}  // namespace hpn::fuzz
