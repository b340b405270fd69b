// serve_loop protocol battery: framing, poisoned queries (bad verb, parse
// error, oversized, mid-stream disconnect), batching semantics, stats, and
// byte-stable transcripts at any --jobs — plus the golden transcript the
// smoke load-test pins (regenerate with HPN_UPDATE_GOLDEN=1).
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"
#include "scenario/scenario.h"
#include "serve/serve.h"

namespace hpn::serve {
namespace {

std::string tiny_scenario_text() {
  return
      "hpnsim-scenario v1\n"
      "seed 7\n"
      "topology tiny_clos\n"
      "size 2\n"
      "wiring 2\n"
      "flow 0 1 1048576 50\n"
      "flow 1 2 1048576 51\n"
      "fault link_fail 1000000 1 0\n"
      "end\n";
}

std::string run_serve(const std::string& script, ServeOptions options = {}) {
  std::istringstream in{script};
  std::ostringstream out;
  EXPECT_EQ(serve_loop(in, out, options), 0);
  return out.str();
}

/// First line of every transcript.
void expect_banner(const std::string& transcript) {
  EXPECT_EQ(transcript.substr(0, 16), "hpnsim-serve v1\n");
}

TEST(ServeProtocol, AnswersARunQuery) {
  const std::string transcript =
      run_serve("query run\n" + tiny_scenario_text() + "go\nquit\n");
  expect_banner(transcript);
  EXPECT_NE(transcript.find("reply 0 ok run cold base="), std::string::npos)
      << transcript;
  EXPECT_NE(transcript.find("alloc 2\n"), std::string::npos);
  EXPECT_NE(transcript.find("fct 2\n"), std::string::npos);
  EXPECT_NE(transcript.find("summary flows=2"), std::string::npos);
  EXPECT_NE(transcript.find("bye\n"), std::string::npos);
}

TEST(ServeProtocol, SecondIdenticalQueryIsAHit) {
  const std::string script = "query kill-link 0\n" + tiny_scenario_text() + "go\n" +
                             "query kill-link 0\n" + tiny_scenario_text() +
                             "go\nquit\n";
  const std::string transcript = run_serve(script);
  EXPECT_NE(transcript.find("reply 0 ok kill-link cold base="), std::string::npos)
      << transcript;
  EXPECT_NE(transcript.find("reply 0 ok kill-link hit base="), std::string::npos)
      << transcript;
  // Hit and cold replies must carry byte-identical payload lines.
  std::istringstream is{transcript};
  std::string line;
  std::vector<std::string> bodies;
  std::string cur;
  bool in_reply = false;
  while (std::getline(is, line)) {
    if (line.rfind("reply 0 ok kill-link", 0) == 0) {
      in_reply = true;
      cur.clear();
      continue;  // the reply header differs (cold vs hit) by design
    }
    if (in_reply) {
      cur += line + "\n";
      if (line == "end") {
        bodies.push_back(cur);
        in_reply = false;
      }
    }
  }
  ASSERT_EQ(bodies.size(), 2u) << transcript;
  EXPECT_EQ(bodies[0], bodies[1]);
}

TEST(ServeProtocol, UnknownVerbIsAPerQueryError) {
  const std::string transcript =
      run_serve("query explode 3\n" + tiny_scenario_text() + "go\nquit\n");
  EXPECT_NE(transcript.find("reply 0 error unknown verb 'explode'"), std::string::npos)
      << transcript;
}

TEST(ServeProtocol, BadVerbDoesNotDesyncTheNextQuery) {
  // The scenario after a bad verb is still consumed, so query 1 parses.
  const std::string script = "query explode\n" + tiny_scenario_text() +
                             "query run\n" + tiny_scenario_text() + "go\nquit\n";
  const std::string transcript = run_serve(script);
  EXPECT_NE(transcript.find("reply 0 error unknown verb 'explode'"), std::string::npos);
  EXPECT_NE(transcript.find("reply 1 ok run cold"), std::string::npos) << transcript;
}

TEST(ServeProtocol, MalformedScenarioReportsThePinnedParserMessage) {
  const std::string script =
      "query run\nhpnsim-scenario v1\nseed 7\nseed 8\nend\ngo\nquit\n";
  const std::string transcript = run_serve(script);
  EXPECT_NE(
      transcript.find("reply 0 error scenario parse error: line 3: duplicate 'seed'"),
      std::string::npos)
      << transcript;
}

TEST(ServeProtocol, OversizedQueryIsRejected) {
  ServeOptions options;
  options.max_query_bytes = 64;
  const std::string transcript =
      run_serve("query run\n" + tiny_scenario_text() + "go\nquit\n", options);
  EXPECT_NE(transcript.find("reply 0 error oversized query (limit 64 bytes)"),
            std::string::npos)
      << transcript;
}

TEST(ServeProtocol, MidStreamDisconnectIsReportedNotHung) {
  // EOF inside the inline scenario: the partial query answers with a
  // disconnect error at the implicit flush instead of vanishing.
  const std::string transcript =
      run_serve("query run\nhpnsim-scenario v1\nseed 7\n");  // no 'end', then EOF
  EXPECT_NE(transcript.find("reply 0 error disconnected mid-scenario"),
            std::string::npos)
      << transcript;
}

TEST(ServeProtocol, EofIsAnImplicitGo) {
  const std::string transcript = run_serve("query run\n" + tiny_scenario_text());
  EXPECT_NE(transcript.find("reply 0 ok run cold"), std::string::npos) << transcript;
}

TEST(ServeProtocol, VerbArgumentSpellings) {
  // Query-line arguments: uint32 fields take an optional sign and fail
  // below 0 or past 2^32 - 1 ("-0" is 0), doubles follow `istream >>` and
  // take no inf/nan spelling, and tabs separate like spaces. Accepted
  // spellings must parse to exactly the arguments of their canonical
  // spelling: the result-cache key holds the parsed arguments, so the
  // second query hits.
  struct Accepted {
    const char* line;
    const char* canonical;
  };
  const Accepted accepted[] = {
      {"kill-link +3", "kill-link 3"},
      {"kill-link 2\t", "kill-link 2"},
      {"kill-link\t2", "kill-link 2"},
      {"add-job 4 1e3", "add-job 4 1000"},
      {"add-job +4 25", "add-job 4 25"},
      {"add-job 4 .5", "add-job 4 0.5"},
      {"add-job\t3\t25", "add-job 3 25"},
      {"resize 07", "resize 7"},
      {"\tresize\t3\t", "resize 3"},
  };
  for (const Accepted& row : accepted) {
    const std::string verb{std::string_view{row.canonical}.substr(
        0, std::string_view{row.canonical}.find(' '))};
    const std::string transcript =
        run_serve(std::string{"query "} + row.canonical + "\n" + tiny_scenario_text() +
                  "go\nquery " + row.line + "\n" + tiny_scenario_text() + "go\nquit\n");
    EXPECT_NE(transcript.find("reply 0 ok " + verb + " hit base=a9eb3a60d4937e38\n"),
              std::string::npos)
        << "'" << row.line << "' must parse like '" << row.canonical << "'\n"
        << transcript;
  }

  struct Rejected {
    const char* line;
    const char* error;
  };
  const Rejected rejected[] = {
      {"kill-link 4294967296", "kill-link takes one cable index"},
      {"kill-link -1", "kill-link takes one cable index"},
      {"kill-link -4294967295", "kill-link takes one cable index"},
      {"kill-link -4294967296", "kill-link takes one cable index"},
      {"kill-link 99999999999999999999", "kill-link takes one cable index"},
      {"kill-link 1x", "kill-link takes one cable index"},
      {"kill-link 3.0", "kill-link takes one cable index"},
      {"kill-link +-3", "kill-link takes one cable index"},
      {"kill-link 0x10", "kill-link takes one cable index"},
      {"kill-link", "kill-link takes one cable index"},
      {"add-job 4 inf", "add-job takes <hosts> <gbps>"},
      {"add-job 4 nan", "add-job takes <hosts> <gbps>"},
      {"add-job 4 1e400", "add-job takes <hosts> <gbps>"},
      {"add-job 4 1e", "add-job takes <hosts> <gbps>"},
      {"add-job 4 25x", "add-job takes <hosts> <gbps>"},
      {"add-job 4", "add-job takes <hosts> <gbps>"},
      {"add-job -4 25", "add-job takes <hosts> <gbps>"},
      {"add-job 1 5", "add-job needs >= 2 hosts"},
      {"add-job 4 0", "add-job gbps out of range (0, 10000]"},
      {"add-job 4 -5", "add-job gbps out of range (0, 10000]"},
      {"add-job 4 1e-400", "add-job gbps out of range (0, 10000]"},
      {"add-job 4 10000.5", "add-job gbps out of range (0, 10000]"},
      {"resize 0", "resize size must be >= 1"},
      {"resize -0", "resize size must be >= 1"},
      {"resize 3 4", "resize takes one size knob"},
      {"run extra", "run takes no arguments"},
      {"", "query needs a verb (run | kill-link | add-job | resize)"},
      {" \t ", "query needs a verb (run | kill-link | add-job | resize)"},
  };
  for (const Rejected& row : rejected) {
    const std::string transcript = run_serve(std::string{"query "} + row.line + "\n" +
                                             tiny_scenario_text() + "go\nquit\n");
    EXPECT_NE(transcript.find(std::string{"\nreply 0 error "} + row.error + "\n"),
              std::string::npos)
        << "'" << row.line << "'\n"
        << transcript;
  }
}

TEST(ServeProtocol, UnknownCommandIsAProtocolError) {
  const std::string transcript = run_serve("launch-missiles\nquit\n");
  EXPECT_NE(transcript.find("protocol-error unknown command 'launch-missiles'"),
            std::string::npos)
      << transcript;
}

TEST(ServeProtocol, StatsLineReportsCacheCounters) {
  const std::string script = "query kill-link 0\n" + tiny_scenario_text() + "go\n" +
                             "query kill-link 0\n" + tiny_scenario_text() +
                             "stats\nquit\n";
  const std::string transcript = run_serve(script);
  EXPECT_NE(transcript.find("stats queries=2 hits=1 misses=1 computes=1 warm=0 "
                            "cold=1 evictions=0"),
            std::string::npos)
      << transcript;
}

TEST(ServeProtocol, TextualVariantsHitTheSameCacheEntry) {
  // Same scenario, different formatting: CRLF, comments, extra whitespace.
  const std::string variant =
      "# capacity probe\r\n"
      "hpnsim-scenario v1\r\n"
      "\r\n"
      "  seed 7\n"
      "topology tiny_clos   # dual ToR\n"
      "size 2\n"
      "wiring 2\n"
      "flow 0 1 1048576 50\n"
      "flow 1 2 1048576 51\n"
      "fault link_fail 1000000 1 0\n"
      "end\n";
  const std::string script = "query add-job 3 25\n" + tiny_scenario_text() + "go\n" +
                             "query add-job 3 25\n" + variant + "go\nquit\n";
  const std::string transcript = run_serve(script);
  EXPECT_NE(transcript.find("reply 0 ok add-job cold base="), std::string::npos)
      << transcript;
  EXPECT_NE(transcript.find("reply 0 ok add-job hit base="), std::string::npos)
      << "variant must hit the canonical entry\n"
      << transcript;
}

TEST(ServeProtocol, TranscriptIsByteStableAtAnyJobs) {
  // A batch with two distinct bases, a duplicate, an error, and a resize:
  // the full transcript must be byte-identical at any worker count.
  const std::string other =
      "hpnsim-scenario v1\n"
      "seed 11\n"
      "topology rail_only\n"
      "size 4\n"
      "wiring 0\n"
      "flow 0 2 524288 40\n"
      "flow 1 3 524288 41\n"
      "end\n";
  const std::string script = "query kill-link 1\n" + tiny_scenario_text() +
                             "query run\n" + other +
                             "query add-job 3 20\n" + tiny_scenario_text() +
                             "query kill-link 1\n" + tiny_scenario_text() +
                             "query explode\n" + other +
                             "query resize 3\n" + other + "go\nstats\nquit\n";
  std::vector<std::string> transcripts;
  for (const int jobs : {1, 2, 8}) {
    ServeOptions options;
    options.engine.jobs = jobs;
    transcripts.push_back(run_serve(script, options));
  }
  EXPECT_EQ(transcripts[0], transcripts[1]);
  EXPECT_EQ(transcripts[0], transcripts[2]);
}

// ---------------------------------------------------------------------------
// Golden transcript: the smoke load-test's scripted query mix, pinned
// byte-for-byte. Regenerate with HPN_UPDATE_GOLDEN=1 after an intentional
// protocol change.

std::string golden_path() { return std::string{HPN_GOLDEN_DIR} + "/serve_session.txt"; }

TEST(ServeGolden, ScriptedSessionMatchesGoldenTranscript) {
  const std::string script = "query run\n" + tiny_scenario_text() +
                             "query kill-link 0\n" + tiny_scenario_text() +
                             "query kill-link 1\n" + tiny_scenario_text() +
                             "query add-job 4 25\n" + tiny_scenario_text() +
                             "go\n"
                             "query kill-link 0\n" + tiny_scenario_text() +
                             "query resize 3\n" + tiny_scenario_text() +
                             "go\nstats\nquit\n";
  ServeOptions options;
  options.engine.jobs = 2;
  const std::string transcript = run_serve(script, options);
  if (std::getenv("HPN_UPDATE_GOLDEN") != nullptr) {
    std::ofstream os(golden_path(), std::ios::binary);
    ASSERT_TRUE(os.good()) << "cannot write " << golden_path();
    os << transcript;
    GTEST_SKIP() << "updated " << golden_path();
  }
  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << golden_path()
                         << " (run with HPN_UPDATE_GOLDEN=1 to create)";
  std::stringstream want;
  want << in.rdbuf();
  if (transcript != want.str()) {
    const std::string actual = golden_path() + ".actual";
    std::ofstream os(actual, std::ios::binary);
    os << transcript;
    FAIL() << "transcript diverged from golden; wrote " << actual;
  }
}

}  // namespace
}  // namespace hpn::serve
