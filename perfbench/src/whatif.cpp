// Workload `whatif`: the `hpnsim serve` daemon, driven in process through
// serve::serve_loop by one closed-loop client.
//
// The client hands the daemon one query and a `go`, waits until the reply's
// `end` line is written, then sends the next. The seeded stream covers
// several distinct kHpnPod bases (128 hosts per segment, segment-local ring
// flows with distinct caps, one flap). Each base gets a cold first query,
// warm kill-link queries on distinct cables, add-job, run and resize, then
// repeats that hit the result cache. One repetition is one daemon session
// over the whole stream, so every repetition starts cold.
//
// It is the only workload that uses scenario parse and materialize, the
// result cache and the wire codec, and it uses the max-min layer through
// incremental re-solves against a cached base. The traced pass replays the
// stream on a fresh QueryEngine through the public calls the daemon makes
// (Scenario::from_text, wire::encode_scenario + fnv1a64, QueryEngine::answer)
// and reads the daemon's counters from the protocol's `stats` command.
#include <algorithm>
#include <iostream>
#include <map>
#include <sstream>
#include <streambuf>

#include "common/rng.h"
#include "harness.h"
#include "scenario/scenario.h"
#include "serve/serve.h"
#include "serve/wire.h"

namespace perfbench {
namespace {

using namespace hpn;

struct Shape {
  std::uint32_t hosts;     ///< per segment
  std::uint32_t segments;
  std::uint32_t flows;     ///< per base
  int bases;
  int warm_kills;          ///< warm kill-link queries per base
  std::uint32_t resize_to;
};
constexpr Shape kFull{128, 16, 16384, 3, 6, 64};
constexpr Shape kTiny{8, 2, 16, 2, 3, 4};

struct Query {
  std::string verb;     ///< "kill-link 7", "run", ...
  std::size_t base = 0;
  char source = 'c';    ///< the reply source the stream implies: c(old) w(arm) h(it)
  bool reference = false;  ///< reply checked against a fresh daemon's cold reply
  std::string head;     ///< "query <verb>\n"; the base's text and "go\n" follow
};

struct Stream {
  std::vector<std::string> base_text;
  std::vector<Query> queries;
  std::size_t flows = 0;  ///< per base
};

/// One kHpnPod base: every NIC sends to the NIC `stride` further along
/// within its own segment (HPN keeps training collectives under one ToR
/// tier), at a distinct cap, plus one access-link flap so `run` has
/// time-domain work. Everything drawn from `rng` varies paths, caps and the
/// fault, not the amount of work.
fuzz::Scenario make_base(const Shape& shape, Rng& rng) {
  fuzz::Scenario s;
  s.seed = rng.next_u64() >> 12;
  s.topology = fuzz::TopologyKind::kHpnPod;
  s.size_knob = shape.hosts;
  s.wiring = shape.segments;
  const std::uint32_t eps_per_seg = shape.hosts * 2;
  const std::uint32_t total_eps = eps_per_seg * shape.segments;
  // Odd strides only: like bench_serve's stride 1, each flow then joins the
  // two NICs of different rails, whose BFS path search costs the same for
  // every stride (an even stride keeps flows on one rail and makes a cold
  // query ~4x cheaper).
  const auto stride =
      static_cast<std::uint32_t>(2 * rng.uniform_int(0, eps_per_seg / 2 - 1) + 1);
  const auto cap_step = static_cast<std::uint32_t>(rng.uniform_int(1, 16));
  for (std::uint32_t i = 0; i < shape.flows; ++i) {
    const std::uint32_t src = i % total_eps;
    const std::uint32_t seg = src / eps_per_seg;
    const std::uint32_t dst = seg * eps_per_seg + (src % eps_per_seg + stride) % eps_per_seg;
    s.flows.push_back({src, dst, std::int64_t{1} << 20, 40.0 + (i * cap_step) % 17});
  }
  s.faults.push_back({fuzz::ScenarioFault::Kind::kLinkFlap, rng.uniform_int(200'000, 800'000),
                      static_cast<std::uint32_t>(rng.next_u64() >> 40), 1'000'000});
  return s;
}

Stream make_stream(std::uint64_t seed, const Shape& shape) {
  Stream st;
  st.flows = shape.flows;
  Rng rng{seed};
  for (int b = 0; b < shape.bases; ++b) {
    Rng base_rng = rng.fork(static_cast<std::uint64_t>(b) + 1);
    st.base_text.push_back(make_base(shape, base_rng).to_text());
    const auto base = static_cast<std::size_t>(b);
    std::vector<Query> mine;
    const auto add = [&](std::string verb, char source) {
      mine.push_back({verb, base, source, false, "query " + verb + "\n"});
    };
    // Distinct cables: 1 cold (builds the base) + warm_kills warm.
    std::vector<std::uint32_t> cables;
    while (cables.size() < static_cast<std::size_t>(shape.warm_kills) + 1) {
      const auto c = static_cast<std::uint32_t>(base_rng.uniform_int(0, 1 << 20));
      if (std::find(cables.begin(), cables.end(), c) == cables.end()) cables.push_back(c);
    }
    for (std::size_t i = 0; i < cables.size(); ++i) {
      add("kill-link " + std::to_string(cables[i]), i == 0 ? 'c' : 'w');
    }
    add("add-job " + std::to_string(base_rng.uniform_int(4, 16)) + " " +
            std::to_string(base_rng.uniform_int(10, 100)),
        'w');
    add("run", 'w');
    add("resize " + std::to_string(shape.resize_to), 'c');  // a base of its own
    // Repeats served from the result cache: the cold query, two warm
    // kill-links and the add-job. The first warm kill-link and its repeat
    // are the replies checked against a fresh daemon.
    mine[1].reference = true;
    for (const std::size_t i : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                cables.size()}) {
      Query q = mine[i];
      q.source = 'h';
      mine.push_back(std::move(q));
    }
    for (Query& q : mine) st.queries.push_back(std::move(q));
  }
  return st;
}

/// An in-process daemon session. serve_loop reads requests from `in_` and
/// writes replies to `out_`. A request is handed over in three pieces (query
/// line, the base's scenario text, `go`) without copying the text; once the
/// daemon asks for input after `go`, the reply is complete (the loop flushes
/// after every `go`), so the client checks it, stamps its latency, and hands
/// over the next request.
class Session {
 public:
  struct Reply {
    double latency_ms = 0.0;
    char source = '?';
    std::size_t bytes = 0;
    std::uint64_t body_hash = 0;  ///< reply with the source field blanked
    bool ok = false;
  };

  Session(Stream& stream, std::vector<std::size_t> keep)
      : stream_{stream}, keep_{std::move(keep)}, in_{this}, out_{&reply_} {}

  /// Runs the whole stream, then `stats` and `quit`. Returns serve_loop's code.
  int run() {
    std::istream in{&in_};
    std::ostream out{&out_};
    return serve::serve_loop(in, out, serve::ServeOptions{.engine = {.jobs = 1}});
  }

  [[nodiscard]] const std::vector<Reply>& replies() const { return replies_; }
  [[nodiscard]] const std::string& stats_line() const { return stats_; }
  [[nodiscard]] bool banner_ok() const { return banner_ok_; }
  [[nodiscard]] bool bye_ok() const { return reply_ == "bye\n"; }
  /// Full reply text of query i, when i was in `keep`.
  [[nodiscard]] const std::string& kept(std::size_t i) const { return kept_.at(i); }

 private:
  struct In : std::streambuf {
    explicit In(Session* s) : session{s} {}
    int_type underflow() override {
      std::string* next = session->next();
      if (next == nullptr || next->empty()) return traits_type::eof();
      setg(next->data(), next->data(), next->data() + next->size());
      return traits_type::to_int_type(next->front());
    }
    Session* session;
  };
  struct Out : std::streambuf {
    explicit Out(std::string* s) : sink{s} {}
    int_type overflow(int_type ch) override {
      if (!traits_type::eq_int_type(ch, traits_type::eof())) sink->push_back(static_cast<char>(ch));
      return traits_type::not_eof(ch);
    }
    std::streamsize xsputn(const char* s, std::streamsize n) override {
      sink->append(s, static_cast<std::size_t>(n));
      return n;
    }
    std::string* sink;
  };

  std::string* next() {
    if (state_ == kSending && piece_ < 2) {
      ++piece_;
      return piece_ == 1 ? &stream_.base_text[stream_.queries[index_].base] : &go_cmd_;
    }
    const auto now = Clock::now();
    if (state_ == kBanner) {
      banner_ok_ = reply_ == "hpnsim-serve v1\n";
    } else if (state_ == kSending) {
      finish_reply(std::chrono::duration<double, std::milli>(now - sent_).count());
    } else if (state_ == kAwaitStats) {
      stats_ = reply_;
    }
    reply_.clear();
    if (index_ < stream_.queries.size()) {
      state_ = kSending;
      piece_ = 0;
      sent_ = Clock::now();
      return &stream_.queries[index_].head;
    }
    if (state_ != kAwaitStats && state_ != kDone) {
      state_ = kAwaitStats;
      return &stats_cmd_;
    }
    if (state_ == kAwaitStats) {
      state_ = kDone;
      return &quit_cmd_;
    }
    return nullptr;
  }

  void finish_reply(double latency_ms) {
    const Query& q = stream_.queries[index_];
    Reply r;
    r.latency_ms = latency_ms;
    r.bytes = reply_.size();
    // "reply 0 ok <verb> <cold|warm|hit> base=<hex>"
    const std::size_t eol = reply_.find('\n');
    const std::string head = reply_.substr(0, eol);
    const std::string prefix = "reply 0 ok " + q.verb.substr(0, q.verb.find(' ')) + " ";
    if (head.rfind(prefix, 0) == 0 && eol != std::string::npos) {
      const std::size_t sp = head.find(' ', prefix.size());
      const std::string source = head.substr(prefix.size(), sp - prefix.size());
      r.source = source == "cold" ? 'c' : source == "warm" ? 'w' : source == "hit" ? 'h' : '?';
      const std::string_view tail{reply_.data() + eol, reply_.size() - eol};
      r.ok = tail.find("\nalloc " + std::to_string(stream_.flows) + "\n") == 0 &&
             tail.size() >= 5 && tail.substr(tail.size() - 5) == "\nend\n";
      r.body_hash = fnv1a(tail, fnv1a(prefix + head.substr(sp)));
    }
    if (std::find(keep_.begin(), keep_.end(), index_) != keep_.end()) kept_[index_] = reply_;
    replies_.push_back(r);
    ++index_;
  }

  enum State { kBanner, kSending, kAwaitStats, kDone };
  Stream& stream_;
  std::vector<std::size_t> keep_;
  std::map<std::size_t, std::string> kept_;
  std::vector<Reply> replies_;
  std::size_t index_ = 0;
  State state_ = kBanner;
  int piece_ = 0;
  Clock::time_point sent_;
  std::string reply_, stats_;
  std::string go_cmd_ = "go\n", stats_cmd_ = "stats\n", quit_cmd_ = "quit\n";
  bool banner_ok_ = false;
  In in_;
  Out out_;
};

/// A fresh daemon's reply to one query: the cold reference.
std::string cold_reply(const Stream& st, const Query& q) {
  std::istringstream in{q.head + st.base_text[q.base] + "go\nquit\n"};
  std::ostringstream out;
  serve::serve_loop(in, out, serve::ServeOptions{.engine = {.jobs = 1}});
  std::string s = out.str();
  const std::size_t from = s.find('\n') + 1;  // banner
  const std::size_t to = s.rfind("bye\n");
  return s.substr(from, to - from);
}

/// Blank the source field of a reply's first line.
std::string without_source(const std::string& reply) {
  const std::size_t eol = reply.find('\n');
  const std::size_t base = eol == std::string::npos ? eol : reply.rfind(" base=", eol);
  if (base == std::string::npos || base == 0) return reply;
  const std::size_t src = reply.rfind(' ', base - 1);
  if (src == std::string::npos) return reply;
  return reply.substr(0, src) + " -" + reply.substr(base);
}

std::uint64_t stat_field(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(" " + key + "=");
  if (at == std::string::npos) return ~std::uint64_t{0};
  return std::stoull(line.substr(at + key.size() + 2));
}

struct Expect {
  std::uint64_t cold = 0, warm = 0, hit = 0;
};

Expect expected_sources(const Stream& st) {
  Expect e;
  for (const Query& q : st.queries) {
    (q.source == 'c' ? e.cold : q.source == 'w' ? e.warm : e.hit) += 1;
  }
  return e;
}

std::vector<double> latencies(const std::vector<std::vector<Session::Reply>>& rounds, char source) {
  std::vector<double> v;
  for (const auto& round : rounds) {
    for (const Session::Reply& r : round) {
      if (r.source == source) v.push_back(r.latency_ms);
    }
  }
  return v;
}

/// The QueryRequest the daemon builds from "query <verb>" and its scenario.
serve::QueryRequest request_for(const std::string& verb, const fuzz::Scenario& scenario) {
  serve::QueryRequest q;
  std::istringstream ls{verb};
  std::string word;
  ls >> word;
  if (word == "kill-link") {
    q.verb = serve::QueryRequest::Verb::kKillLink;
    ls >> q.arg0;
  } else if (word == "add-job") {
    q.verb = serve::QueryRequest::Verb::kAddJob;
    ls >> q.arg0 >> q.arg1;
  } else if (word == "resize") {
    q.verb = serve::QueryRequest::Verb::kResize;
    ls >> q.arg0;
  }
  q.scenario = scenario;
  return q;
}

}  // namespace

void run_whatif(const Options& opts, Report& report) {
  const Shape& shape = opts.tiny ? kTiny : kFull;
  // Set-up (generating the stream) runs again before every session, so its
  // median samples the whole window rather than one moment of a noisy host.
  std::vector<double> setup_s;
  Stream stream;
  const auto set_up_timed = [&] {
    const auto t0 = Clock::now();
    stream = make_stream(opts.seed, shape);
    setup_s.push_back(seconds_since(t0));
  };
  set_up_timed();
  const Expect want = expected_sources(stream);
  std::cout << "whatif: seed " << opts.seed << ", " << shape.bases << " bases x "
            << shape.flows << " flows, " << stream.queries.size() << " queries per session ("
            << want.cold << " cold, " << want.warm << " warm, " << want.hit << " hit)\n";

  std::vector<std::size_t> sampled;
  for (std::size_t i = 0; i < stream.queries.size(); ++i) {
    if (stream.queries[i].reference) sampled.push_back(i);
  }

  std::vector<std::vector<Session::Reply>> rounds;
  std::vector<double> session_s;
  std::vector<std::uint64_t> session_digest;
  std::map<std::size_t, std::string> kept;
  std::string stats;
  const auto session = [&](int index) {
    Session s{stream, index == 0 ? sampled : std::vector<std::size_t>{}};
    const auto t0 = Clock::now();
    const int code = s.run();
    session_s.push_back(seconds_since(t0));
    std::uint64_t digest = fnv1a("");
    bool ok = code == 0 && s.banner_ok() && s.bye_ok() &&
              s.replies().size() == stream.queries.size();
    for (std::size_t i = 0; i < s.replies().size(); ++i) {
      const Session::Reply& r = s.replies()[i];
      const bool reply_ok = r.ok && r.source == stream.queries[i].source;
      report.check(reply_ok, "whatif query " + std::to_string(i) + " '" +
                                 stream.queries[i].verb + "' reply (source " + r.source +
                                 ", expected " + stream.queries[i].source + ")");
      digest = fnv1a(std::to_string(r.body_hash), digest);
    }
    // The daemon's own counters must agree with what the stream implies.
    stats = s.stats_line();
    ok = ok && stat_field(stats, "queries") == stream.queries.size() &&
         stat_field(stats, "hits") == want.hit && stat_field(stats, "cold") == want.cold &&
         stat_field(stats, "warm") == want.warm &&
         stat_field(stats, "bases") == static_cast<std::uint64_t>(shape.bases);
    ok = ok && (session_digest.empty() || digest == session_digest.front());
    report.check(ok, "whatif session " + std::to_string(index) + ": " + stats);
    session_digest.push_back(digest);
    if (index == 0) {
      Report::digest("whatif", digest);
      for (const std::size_t i : sampled) kept[i] = s.kept(i);
    }
    rounds.push_back(s.replies());
  };

  const auto check_sampled = [&] {
    for (const std::size_t i : sampled) {
      const std::string want_reply =
          expected(opts, without_source(cold_reply(stream, stream.queries[i])));
      report.check(without_source(kept[i]) == want_reply,
                   "whatif query " + std::to_string(i) + " '" + stream.queries[i].verb +
                       "' reply equals a fresh daemon's cold reply");
    }
  };

  const auto print_latency = [&] {
    for (const char src : {'c', 'w', 'h'}) {
      const std::vector<double> v = latencies(rounds, src);
      const Tail t = supported_tail(v);
      std::cout << "whatif: " << src << " p50 " << median(v) << " ms, p" << t.percentile << " "
                << t.value << " ms, n=" << v.size() << "\n";
    }
    std::map<std::string, std::vector<double>> by_verb;
    for (const auto& round : rounds) {
      for (std::size_t i = 0; i < round.size(); ++i) {
        const Query& q = stream.queries[i];
        by_verb[q.verb.substr(0, q.verb.find(' ')) + "/" + q.source].push_back(round[i].latency_ms);
      }
    }
    for (const auto& [verb, v] : by_verb) {
      std::cout << "whatif: " << verb << " p50 " << median(v) << " ms, n=" << v.size() << "\n";
    }
  };

  HostSpeed speed;
  repeat_for(opts.seconds, opts.tiny ? 1 : 3, speed, [&](int k) {
    if (k > 0) set_up_timed();
    session(k);
  });
  check_sampled();
  print_latency();
  if (!opts.trace) {
    report_end_to_end(report, "whatif", session_s, setup_s,
                      static_cast<double>(stream.queries.size()), speed);
    return;
  }

  // Traced pass: replay the stream on a fresh engine through the calls the
  // daemon makes per query, timing each.
  serve::QueryEngine engine{{.jobs = 1}};
  std::vector<double> parse_ms, canonical_ms, reply_ms, bytes;
  std::map<char, std::vector<double>> answer_ms;
  double engine_ms = 0.0, protocol_ms = 0.0;
  for (std::size_t i = 0; i < stream.queries.size(); ++i) {
    const Query& q = stream.queries[i];
    const std::string& text = stream.base_text[q.base];
    auto t0 = Clock::now();
    const auto scenario = fuzz::Scenario::from_text(text);
    const double parse = 1e3 * seconds_since(t0);
    report.check(scenario.has_value(), "whatif replay parse of base " + std::to_string(q.base));
    if (!scenario) continue;
    t0 = Clock::now();
    const std::uint64_t hash = fuzz::fnv1a64(serve::encode_scenario(*scenario));
    const double canonical = 1e3 * seconds_since(t0);
    const serve::QueryRequest req = request_for(q.verb, *scenario);
    t0 = Clock::now();
    const std::vector<serve::Answer> answers = engine.answer({req});
    const double answer = 1e3 * seconds_since(t0);
    const char source = answers[0].source == serve::Answer::Source::kCold   ? 'c'
                        : answers[0].source == serve::Answer::Source::kWarm ? 'w'
                                                                            : 'h';
    report.check(answers[0].ok && source == q.source && hash != 0,
                 "whatif replay of query " + std::to_string(i) + " '" + q.verb + "'");
    std::vector<double> lat;
    for (const auto& round : rounds) lat.push_back(round[i].latency_ms);
    const double protocol = median(lat);
    parse_ms.push_back(parse);
    canonical_ms.push_back(canonical);
    answer_ms[source].push_back(answer);
    reply_ms.push_back(protocol - parse - answer);
    bytes.push_back(static_cast<double>(rounds[0][i].bytes));
    engine_ms += parse + canonical + answer;
    protocol_ms += protocol;
  }
  const serve::EngineStats& es = engine.stats();
  report.check(es.cache_hits == stat_field(stats, "hits") &&
                   es.cold_evals == stat_field(stats, "cold") &&
                   es.warm_evals == stat_field(stats, "warm") &&
                   es.evictions == stat_field(stats, "evictions"),
               "whatif replay counters match the daemon's stats line: " + stats);

  // The materializer on its own, twice per base.
  std::vector<double> materialize_ms;
  std::size_t dropped = 0, links = 0;
  for (const std::string& text : stream.base_text) {
    const fuzz::Scenario s = *fuzz::Scenario::from_text(text);
    for (int rep = 0; rep < 2; ++rep) {
      const auto t0 = Clock::now();
      const fuzz::Materialized m = fuzz::materialize(s);
      materialize_ms.push_back(1e3 * seconds_since(t0));
      if (rep == 0) dropped += s.flows.size() - m.flows.size();
      links = m.cluster.topo.links().size();
    }
  }

  const std::vector<double> warm = latencies(rounds, 'w');
  const Tail tail = supported_tail(warm);
  report.metric("serve.cold_p50_ms", median(latencies(rounds, 'c')), "ms");
  report.metric("serve.warm_p50_ms", median(warm), "ms");
  report.metric("serve.warm_tail_ms", tail.value, "ms");
  report.metric("serve.warm_tail_pct", tail.percentile, "%");
  report.metric("serve.warm_samples", static_cast<double>(warm.size()), "count");
  report.metric("serve.hit_p50_ms", median(latencies(rounds, 'h')), "ms");
  report.metric("serve.answer_cold_ms", median(answer_ms['c']), "ms");
  report.metric("serve.answer_warm_ms", median(answer_ms['w']), "ms");
  report.metric("serve.answer_hit_ms", median(answer_ms['h']), "ms");
  report.metric("serve.canonical_ms", median(canonical_ms), "ms");
  report.metric("serve.reply_ms", median(reply_ms), "ms");
  report.metric("serve.reply_bytes", median(bytes), "bytes");
  report.metric("serve.hit_ratio",
                static_cast<double>(es.cache_hits) / static_cast<double>(es.queries), "ratio");
  report.metric("serve.cold_evals", static_cast<double>(es.cold_evals), "count");
  report.metric("serve.warm_evals", static_cast<double>(es.warm_evals), "count");
  report.metric("serve.bases_built", static_cast<double>(es.bases_built), "count");
  report.metric("serve.evictions", static_cast<double>(es.evictions), "count");
  report.metric("scenario.parse_ms", median(parse_ms), "ms");
  report.metric("scenario.materialize_ms", median(materialize_ms), "ms");
  report.metric("scenario.flows_dropped", static_cast<double>(dropped), "count");
  report.metric("topo.links", static_cast<double>(links), "count");
  // Exercised inside QueryEngine::answer but not observable from outside.
  for (const char* name : {"maxmin.resolves", "maxmin.flows_rerated", "maxmin.rerated_per_resolve",
                           "maxmin.collapse", "path_table.hit_ratio", "sim.events",
                           "sim.events_per_s"}) {
    report.unobservable(name);
  }
  report.metric("timed.coverage", engine_ms / protocol_ms, "ratio");
  std::cout << "whatif traced: engine-side calls (parse + canonical + answer) explain "
            << engine_ms / protocol_ms << " of the protocol latency; warm answer "
            << median(answer_ms['w']) << " ms inside the engine vs " << median(warm)
            << " ms through the protocol\n";
}

}  // namespace perfbench
