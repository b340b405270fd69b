// Scenario-fuzzing suite: format round-trip properties, shrinker soundness,
// a time-boxed randomized fuzz batch through all engines, and the shrinker's
// acceptance test (a stuck flow among decoys must be caught and shrunk to a
// handful of nodes).
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "tests/fuzz/fuzz_harness.h"
#include "tests/fuzz/generator.h"

namespace hpn::fuzz {
namespace {

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::atoi(v);
}

TEST(ScenarioFormat, RoundTripIsIdentityOnRandomScenarios) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Scenario s = random_scenario(seed);
    const std::string text = s.to_text();
    const auto parsed = Scenario::from_text(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(*parsed, s) << text;
    // Serialization is canonical: re-serializing gives identical bytes.
    EXPECT_EQ(parsed->to_text(), text);
  }
}

TEST(ScenarioFormat, RejectsMalformedInput) {
  EXPECT_FALSE(Scenario::from_text("").has_value());
  EXPECT_FALSE(Scenario::from_text("not-a-scenario\nend\n").has_value());
  // Missing "end" terminator (truncated file).
  EXPECT_FALSE(Scenario::from_text("hpnsim-scenario v1\nseed 1\n").has_value());
  // Unknown key.
  EXPECT_FALSE(
      Scenario::from_text("hpnsim-scenario v1\nbogus 3\nend\n").has_value());
  // Negative flow size.
  EXPECT_FALSE(
      Scenario::from_text("hpnsim-scenario v1\nflow 0 1 -5 10\nend\n").has_value());
  // Unknown fault kind.
  EXPECT_FALSE(
      Scenario::from_text("hpnsim-scenario v1\nfault meteor 0 0 0\nend\n").has_value());
}

TEST(ScenarioFormat, MaterializeIsDeterministic) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Scenario s = random_scenario(seed);
    const Materialized a = materialize(s);
    const Materialized b = materialize(s);
    ASSERT_EQ(a.cluster.topo.node_count(), b.cluster.topo.node_count());
    ASSERT_EQ(a.cluster.topo.link_count(), b.cluster.topo.link_count());
    ASSERT_EQ(a.flows.size(), b.flows.size());
    for (std::size_t i = 0; i < a.flows.size(); ++i) {
      EXPECT_EQ(a.flows[i].src, b.flows[i].src);
      EXPECT_EQ(a.flows[i].dst, b.flows[i].dst);
      ASSERT_EQ(a.flows[i].path.size(), b.flows[i].path.size());
      for (std::size_t h = 0; h < a.flows[i].path.size(); ++h) {
        EXPECT_EQ(a.flows[i].path[h], b.flows[i].path[h]);
      }
    }
    ASSERT_EQ(a.faults.size(), b.faults.size());
    for (std::size_t i = 0; i < a.faults.size(); ++i) {
      EXPECT_EQ(a.faults[i].at, b.faults[i].at);
      EXPECT_EQ(a.faults[i].cable, b.faults[i].cable);
      EXPECT_EQ(a.faults[i].tor, b.faults[i].tor);
    }
  }
}

// Fault times are int64 nanoseconds end to end: text serialization and
// materialize() must both preserve sub-microsecond values exactly (any
// rounding here would silently move a fault off the instant the fuzzer
// aimed at).
TEST(ScenarioFormat, FaultTimesRoundTripAtNanosecondPrecision) {
  const std::int64_t at_values[] = {0, 1, 7, 999, 1'001, 123'456,
                                    1'234'567, 999'999'999'999};
  Scenario s;
  s.seed = 11;
  s.topology = TopologyKind::kTinyClos;
  s.size_knob = 4;
  s.wiring = 2;
  for (const std::int64_t at : at_values) {
    s.faults.push_back({ScenarioFault::Kind::kLinkFlap, at, 0,
                        at % 2 == 0 ? at + 13 : 0});
  }
  const std::string text = s.to_text();
  const auto parsed = Scenario::from_text(text);
  ASSERT_TRUE(parsed.has_value()) << text;
  EXPECT_EQ(*parsed, s);
  EXPECT_EQ(parsed->to_text(), text);

  const Materialized m = materialize(*parsed);
  ASSERT_EQ(m.faults.size(), std::size(at_values));
  for (std::size_t i = 0; i < m.faults.size(); ++i) {
    EXPECT_EQ(m.faults[i].at.since_origin().as_nanos(), at_values[i]);
    EXPECT_EQ(m.faults[i].down_for.as_nanos(), s.faults[i].down_for_ns);
  }
}

TEST(ScenarioShrink, EveryCandidateIsStrictlySmaller) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const Scenario s = random_scenario(seed);
    const std::uint64_t w = scenario_weight(s);
    for (const Scenario& cand : shrink_candidates(s)) {
      EXPECT_LT(scenario_weight(cand), w) << s.to_text();
    }
  }
}

TEST(ScenarioShrink, GreedyShrinkTerminatesAtAFixpoint) {
  // With an always-failing predicate the shrinker must walk monotonically
  // down to a scenario none of whose candidates are accepted.
  const Scenario start = random_scenario(7);
  int evals = 0;
  const Scenario min = shrink(
      start, [&evals](const Scenario&) { ++evals; return true; }, 10'000);
  EXPECT_LT(evals, 10'000);  // terminated on its own, not the eval budget
  EXPECT_LE(scenario_weight(min), scenario_weight(start));
  for (const Scenario& cand : shrink_candidates(min)) {
    EXPECT_LT(scenario_weight(cand), scenario_weight(min));
  }
  // At the fixpoint everything droppable has been dropped.
  EXPECT_TRUE(min.faults.empty());
  EXPECT_LE(min.flows.size(), 1u);
  EXPECT_EQ(min.topology, TopologyKind::kTinyClos);
}

// Time-boxed fuzz batch: randomized scenarios through every engine with the
// auditor on and the cross-engine oracles armed. HPN_FUZZ_SMOKE_RUNS scales
// it up; the default stays inside the suite's 30 s budget.
TEST(FuzzSmoke, RandomScenariosUpholdInvariants) {
  const int runs = env_int("HPN_FUZZ_SMOKE_RUNS", 25);
  for (int i = 0; i < runs; ++i) {
    const Scenario s =
        random_scenario(std::uint64_t{0xF00D0000} + static_cast<std::uint64_t>(i));
    const RunResult r = run_scenario(s);
    EXPECT_TRUE(r.ok) << "scenario:\n" << s.to_text() << "failure:\n" << r.failure;
  }
}

/// The shrinker's acceptance case: a fault-free flow far too large to finish
/// inside the engines' 8 s horizon (the shape the replay test round-trips)
/// hides among decoy flows on a fat tree. The stall oracle must catch it,
/// and the shrinker must cut the repro to a <= 8-node tiny Clos carrying
/// just that flow, which round-trips through a .scenario file.
TEST(FuzzAudit, StuckFlowIsCaughtAndShrunk) {
  Scenario s;
  s.seed = 77;
  s.topology = TopologyKind::kFatTree;  // k = 4: 36 nodes
  // The knobs do not shape the fat tree; they size the tiny Clos the
  // shrinker crosses to, which needs two hosts to keep the flow.
  s.size_knob = 4;
  s.wiring = 2;
  // Flow 2 needs ~25 s at its 0.5 Gbps floor; the others finish in
  // microseconds.
  s.flows = {{0, 1, 65'536, 100.0},
             {2, 3, 262'144, 100.0},
             {1, 2, 1'536'000'000, 0.01},
             {3, 0, 2'048, 50.0}};

  // Without the stuck flow the same scenario is clean.
  Scenario decoys = s;
  decoys.flows.erase(decoys.flows.begin() + 2);
  const RunResult clean = run_scenario(decoys);
  ASSERT_TRUE(clean.ok) << clean.failure;

  const RunResult broken = run_scenario(s);
  ASSERT_FALSE(broken.ok);
  EXPECT_NE(broken.failure.find("still active"), std::string::npos) << broken.failure;

  const Scenario shrunk =
      shrink(s, [](const Scenario& c) { return !run_scenario(c).ok; });
  EXPECT_LT(scenario_weight(shrunk), scenario_weight(s));
  const Materialized m = materialize(shrunk);
  EXPECT_LE(m.cluster.topo.node_count(), 8u) << shrunk.to_text();
  // The decoys are gone; only the stuck flow survives.
  EXPECT_EQ(shrunk.flows.size(), 1u) << shrunk.to_text();

  // The shrunk repro replays from its .scenario file.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "hpn_fuzz_repro_test").string();
  const std::string path = write_repro(shrunk, dir);
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const auto reparsed = Scenario::from_text(buf.str());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(*reparsed, shrunk);
  EXPECT_FALSE(run_scenario(*reparsed).ok);
  std::filesystem::remove_all(dir);
}

// Regression corpus: every shrunk .scenario repro committed under
// tests/fuzz/regressions/ must stay clean (violations fixed, not re-broken).
TEST(FuzzRegressions, CommittedReprosStayClean) {
  const std::filesystem::path dir = HPN_FUZZ_REGRESSION_DIR;
  if (!std::filesystem::exists(dir)) GTEST_SKIP() << "no regression corpus";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".scenario") continue;
    std::ifstream in(entry.path());
    std::stringstream buf;
    buf << in.rdbuf();
    const auto s = Scenario::from_text(buf.str());
    ASSERT_TRUE(s.has_value()) << entry.path();
    const RunResult r = run_scenario(*s);
    EXPECT_TRUE(r.ok) << entry.path() << "\n" << r.failure;
  }
}

}  // namespace
}  // namespace hpn::fuzz
