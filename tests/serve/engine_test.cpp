// QueryEngine semantics: the warm-start equivalence battery (warm answers
// bit-equal to cold re-runs across every fabric kind), batch dedup (one
// compute, two replies), result-cache hits/eviction under a byte cap, and
// canonicalized cache keying (textual variants collide).
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "scenario/scenario.h"
#include "serve/serve.h"

namespace hpn::serve {
namespace {

using fuzz::Scenario;
using fuzz::TopologyKind;

/// append_reply's bytes for `a` after its header line (which names the
/// answer's source: cold, warm or hit).
std::string reply_body(const Answer& a) {
  std::string reply;
  append_reply(reply, 0, "query", a);
  return reply.substr(reply.find('\n') + 1);
}

/// A small but non-trivial scenario on the given fabric: cross-section
/// flows plus one permanent planning fault and one flap.
Scenario make_scenario(TopologyKind kind, std::uint32_t size, std::uint32_t wiring) {
  Scenario s;
  s.seed = 7;
  s.topology = kind;
  s.size_knob = size;
  s.wiring = wiring;
  for (std::uint32_t i = 0; i < 6; ++i) {
    s.flows.push_back({i, i + 3, 1 << 20, 50.0 + i});
  }
  s.faults.push_back({fuzz::ScenarioFault::Kind::kLinkFail, 1'000'000, 1, 0});
  s.faults.push_back({fuzz::ScenarioFault::Kind::kLinkFlap, 2'000'000, 2, 500'000});
  return s;
}

QueryRequest make_query(const Scenario& s, QueryRequest::Verb verb,
                        std::uint32_t arg0 = 0, double arg1 = 0.0) {
  QueryRequest q;
  q.verb = verb;
  q.arg0 = arg0;
  q.arg1 = arg1;
  q.scenario = s;
  return q;
}

/// Every materializable fabric kind the scenario format can name.
const std::vector<std::pair<TopologyKind, std::pair<std::uint32_t, std::uint32_t>>>&
fabric_zoo() {
  static const std::vector<
      std::pair<TopologyKind, std::pair<std::uint32_t, std::uint32_t>>>
      kZoo = {
          {TopologyKind::kTinyClos, {2, 2}},  {TopologyKind::kHpnSegment, {2, 0}},
          {TopologyKind::kDcnPlus, {2, 0}},   {TopologyKind::kFatTree, {4, 0}},
          {TopologyKind::kRailOnly, {4, 0}},  {TopologyKind::kRailX, {2, 2}},
          {TopologyKind::kUbMesh, {2, 0}},    {TopologyKind::kHpnPod, {4, 2}},
      };
  return kZoo;
}

TEST(QueryEngine, WarmAnswersBitEqualColdAcrossAllFabrics) {
  for (const auto& [kind, knobs] : fabric_zoo()) {
    const Scenario s = make_scenario(kind, knobs.first, knobs.second);
    const std::vector<QueryRequest> queries = {
        make_query(s, QueryRequest::Verb::kRun),
        make_query(s, QueryRequest::Verb::kKillLink, 3),
        make_query(s, QueryRequest::Verb::kAddJob, 4, 40.0),
        make_query(s, QueryRequest::Verb::kResize, s.size_knob + 1),
    };
    // Warm engine: one batch builds the base, later batches re-use it.
    QueryEngine warm_engine;
    const Answer seed_answer = warm_engine.answer({queries[0]})[0];
    ASSERT_TRUE(seed_answer.ok) << to_string(kind) << ": " << seed_answer.error;
    for (const QueryRequest& q : queries) {
      // Cold engine: a fresh process answering exactly one query.
      QueryEngine cold_engine;
      const Answer cold = cold_engine.answer({q})[0];
      const Answer warm = warm_engine.answer({q})[0];
      ASSERT_TRUE(cold.ok) << to_string(kind) << ": " << cold.error;
      ASSERT_TRUE(warm.ok) << to_string(kind) << ": " << warm.error;
      EXPECT_EQ(cold.base_hash, warm.base_hash);
      // Bit-equal: QueryResult::operator== compares every double exactly.
      EXPECT_EQ(cold.result, warm.result)
          << to_string(kind) << " verb " << static_cast<int>(q.verb);
      // And byte-equal in the reply (what the daemon actually sends).
      EXPECT_EQ(reply_body(cold), reply_body(warm));
    }
    EXPECT_GT(warm_engine.stats().warm_evals, 0u) << to_string(kind);
  }
}

TEST(QueryEngine, RepeatedQueryIsACacheHitWithIdenticalPayload) {
  const Scenario s = make_scenario(TopologyKind::kTinyClos, 2, 2);
  QueryEngine engine;
  const Answer first = engine.answer({make_query(s, QueryRequest::Verb::kKillLink, 1)})[0];
  const Answer again = engine.answer({make_query(s, QueryRequest::Verb::kKillLink, 1)})[0];
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(first.source, Answer::Source::kCold);
  EXPECT_EQ(again.source, Answer::Source::kHit);
  EXPECT_EQ(first.result, again.result);
  EXPECT_EQ(engine.stats().cache_hits, 1u);
  EXPECT_EQ(engine.stats().computes, 1u);
}

TEST(QueryEngine, ConcurrentIdenticalQueriesComputeOnce) {
  const Scenario s = make_scenario(TopologyKind::kHpnSegment, 2, 0);
  EngineOptions options;
  options.jobs = 4;
  QueryEngine engine{options};
  const QueryRequest q = make_query(s, QueryRequest::Verb::kAddJob, 4, 25.0);
  const std::vector<Answer> answers = engine.answer({q, q});
  ASSERT_EQ(answers.size(), 2u);
  ASSERT_TRUE(answers[0].ok);
  ASSERT_TRUE(answers[1].ok);
  EXPECT_EQ(answers[0].result, answers[1].result);
  EXPECT_EQ(answers[1].source, Answer::Source::kHit) << "dedup'd duplicate";
  EXPECT_EQ(engine.stats().computes, 1u) << "one compute, two replies";
  EXPECT_EQ(engine.stats().queries, 2u);
}

TEST(QueryEngine, BatchAnswersAreIdenticalAtAnyJobs) {
  // Two distinct bases and a duplicate in one batch: groups fan out across
  // workers, results must not depend on the worker count.
  const Scenario a = make_scenario(TopologyKind::kTinyClos, 2, 2);
  const Scenario b = make_scenario(TopologyKind::kRailOnly, 4, 0);
  const std::vector<QueryRequest> batch = {
      make_query(a, QueryRequest::Verb::kKillLink, 0),
      make_query(b, QueryRequest::Verb::kRun),
      make_query(a, QueryRequest::Verb::kAddJob, 3, 10.0),
      make_query(a, QueryRequest::Verb::kKillLink, 0),  // duplicate
      make_query(b, QueryRequest::Verb::kResize, 5),
  };
  std::vector<std::vector<std::string>> transcripts;
  for (const int jobs : {1, 2, 8}) {
    EngineOptions options;
    options.jobs = jobs;
    QueryEngine engine{options};
    const std::vector<Answer> answers = engine.answer(batch);
    std::vector<std::string> replies;
    for (std::size_t i = 0; i < answers.size(); ++i) {
      ASSERT_TRUE(answers[i].ok) << answers[i].error;
      replies.emplace_back();
      append_reply(replies.back(), i, "query", answers[i]);
    }
    transcripts.push_back(std::move(replies));
  }
  EXPECT_EQ(transcripts[0], transcripts[1]);
  EXPECT_EQ(transcripts[0], transcripts[2]);
}

TEST(QueryEngine, TextualVariantsOfOneScenarioShareCacheEntries) {
  const std::string canonical_text =
      make_scenario(TopologyKind::kTinyClos, 2, 2).to_text();
  // Re-parse a formatting variant: comments, CRLF, extra whitespace.
  std::string variant_text = "# what-if probe\r\n";
  for (char c : canonical_text) {
    variant_text += c;
    if (c == '\n') variant_text += ' ';  // leading space on every line
  }
  const auto canonical = Scenario::from_text(canonical_text);
  const auto variant = Scenario::from_text(variant_text);
  ASSERT_TRUE(canonical.has_value());
  ASSERT_TRUE(variant.has_value());
  QueryEngine engine;
  const Answer first =
      engine.answer({make_query(*canonical, QueryRequest::Verb::kKillLink, 2)})[0];
  const Answer second =
      engine.answer({make_query(*variant, QueryRequest::Verb::kKillLink, 2)})[0];
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(first.base_hash, second.base_hash) << "variants must hash identically";
  EXPECT_EQ(second.source, Answer::Source::kHit);
  EXPECT_EQ(first.result, second.result);
}

TEST(QueryEngine, EvictsUnderMemoryCapAndRecomputesCorrectly) {
  const Scenario s = make_scenario(TopologyKind::kTinyClos, 2, 2);
  EngineOptions options;
  options.cache_bytes = 512;  // a handful of entries at most
  QueryEngine engine{options};
  const Answer original =
      engine.answer({make_query(s, QueryRequest::Verb::kKillLink, 0)})[0];
  ASSERT_TRUE(original.ok);
  for (std::uint32_t i = 1; i <= 32; ++i) {
    ASSERT_TRUE(engine.answer({make_query(s, QueryRequest::Verb::kKillLink, i)})[0].ok);
  }
  EXPECT_GT(engine.stats().evictions, 0u);
  EXPECT_LE(engine.stats().cache_bytes, options.cache_bytes);
  // The original entry was evicted: re-asking recomputes (warm, not hit)
  // and the recomputed answer is bit-identical.
  const Answer again =
      engine.answer({make_query(s, QueryRequest::Verb::kKillLink, 0)})[0];
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(again.source, Answer::Source::kWarm);
  EXPECT_EQ(again.result, original.result);
}

TEST(QueryEngine, BaseLruIsBoundedByMaxBases) {
  EngineOptions options;
  options.max_bases = 2;
  QueryEngine engine{options};
  for (std::uint32_t size = 2; size <= 6; ++size) {
    const Scenario s = make_scenario(TopologyKind::kTinyClos, size, 2);
    ASSERT_TRUE(engine.answer({make_query(s, QueryRequest::Verb::kKillLink, 0)})[0].ok);
  }
  EXPECT_LE(engine.stats().bases, 2u);
  EXPECT_EQ(engine.stats().bases_built, 5u);
}

TEST(QueryEngine, RunVerbReportsFctsAndRewindsCleanly) {
  Scenario s = make_scenario(TopologyKind::kHpnSegment, 2, 0);
  QueryEngine engine;
  const QueryRequest q = make_query(s, QueryRequest::Verb::kRun);
  const Answer first = engine.answer({q})[0];
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.result.fcts.size(), first.result.base_flows.size());
  bool any_completed = false;
  for (const QueryResult::Fct& f : first.result.fcts) any_completed |= f.completed();
  EXPECT_TRUE(any_completed) << "some flows must finish in the time-domain run";
  // A warm re-run on the same base builds a fresh Simulator/FlowSession
  // and must be bit-identical to the first run (the base's topology is
  // back in planning state in between). Bypass the result cache through a
  // fresh engine that caches nothing.
  EngineOptions no_cache;
  no_cache.cache_bytes = 1;  // effectively disables result caching
  QueryEngine engine2{no_cache};
  const Answer cold1 = engine2.answer({q})[0];
  const Answer cold2 = engine2.answer({q})[0];  // same base, fresh run
  ASSERT_TRUE(cold1.ok);
  ASSERT_TRUE(cold2.ok);
  EXPECT_EQ(cold2.source, Answer::Source::kWarm);
  EXPECT_EQ(cold1.result, cold2.result);
}

TEST(QueryEngine, RunVerbLeavesFlowsStalledAtDrain) {
  // Every cable fails for good at 1 ms: the 1 MiB flows finish before it,
  // the 1 GiB ones stall and are still active in the run's FlowSession
  // when the query returns and drops it (leak-checked under ASan).
  Scenario s = make_scenario(TopologyKind::kTinyClos, 2, 2);
  for (std::size_t i = 0; i < s.flows.size(); i += 2) s.flows[i].size_bytes = 1 << 30;
  s.faults.clear();
  for (std::uint32_t cable = 0; cable < 32; ++cable) {
    s.faults.push_back({fuzz::ScenarioFault::Kind::kLinkFail, 1'000'000, cable, 0});
  }
  EngineOptions no_cache;
  no_cache.cache_bytes = 1;
  QueryEngine engine{no_cache};
  const QueryRequest q = make_query(s, QueryRequest::Verb::kRun);
  const Answer first = engine.answer({q})[0];
  ASSERT_TRUE(first.ok) << first.error;
  ASSERT_EQ(first.result.fcts.size(), s.flows.size());
  for (std::size_t i = 0; i < s.flows.size(); ++i) {
    const QueryResult::Fct& f = first.result.fcts[i];
    EXPECT_EQ(f.completed(), i % 2 == 1) << "flow " << i;
    if (!f.completed()) {
      EXPECT_EQ(f.seconds, -1.0) << "flow " << i;
    }
  }
  // Steady state answers over the planning topology: every cable is down.
  EXPECT_EQ(first.result.stalled, s.flows.size());
  const Answer again = engine.answer({q})[0];
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(again.source, Answer::Source::kWarm);
  EXPECT_EQ(again.result, first.result);
}

TEST(QueryEngine, ErrorsAreReportedPerQueryNotFatal) {
  QueryEngine engine;
  // add-job with an enormous host count clamps to the endpoint count; a
  // 1-host request is a config error and must not poison the batch.
  const Scenario s = make_scenario(TopologyKind::kTinyClos, 2, 2);
  const std::vector<Answer> answers = engine.answer({
      make_query(s, QueryRequest::Verb::kAddJob, 1, 10.0),
      make_query(s, QueryRequest::Verb::kKillLink, 0),
  });
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_FALSE(answers[0].ok);
  EXPECT_FALSE(answers[0].error.empty());
  EXPECT_TRUE(answers[1].ok) << answers[1].error;
}

}  // namespace
}  // namespace hpn::serve
