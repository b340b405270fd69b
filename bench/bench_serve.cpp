// Query-service harness: cold vs warm vs cached latency on Pod-scale
// capacity-planning queries (writes results/bench_serve.csv).
//
// Four phases over one kHpnPod base scenario:
//   * cold   — fresh QueryEngine per sample, so each kill-link query pays
//              the full base build (materialize the pod, build + resolve
//              the per-flow solver) before its delta.
//   * warm   — one engine, distinct kill-link cables: every query runs on
//              the roll-back-synced scratch copy of the cached base solver
//              and re-solves only the affected component.
//   * cached — the same queries again: content-addressed hits that copy
//              the stored result without touching a solver.
//   * protocol — the warm queries again on a fresh daemon, through
//              serve::serve_loop in process over string streams: framing,
//              scenario parse, canonical hash, engine, reply text. A
//              closed-loop client hands over each request once the previous
//              reply is written; a fresh engine answers the same queries
//              directly for the engine-side p50.
//
// Acceptance, exact (both modes): every cold build routes its flows with
// one distance field per (segment, rail) attachment set; the warm and
// cached phases build no base and no field, and cached answers evaluate
// nothing; every warm/cached answer prints the same reply lines
// (serve::append_reply) as the cold answer for the same query, at --jobs 1
// and at the requested --jobs; every protocol reply is byte-identical to
// the engine's answer for the same query printed by serve::append_reply. Full mode also keeps
// same-run wall-ratio bounds well clear of the measured ratios (warm >= 10x
// and cached >= 25x faster than the cold median; protocol p50 <= 12x the
// engine p50, measured 6-7x, 30-36x with the iostream text path); --smoke
// skips them (CI containers share cores).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <streambuf>
#include <string>
#include <vector>

#include "bench_common.h"
#include "scenario/scenario.h"
#include "serve/serve.h"

namespace {

using namespace hpn;

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
}

/// serve::append_reply's bytes for `a` after its header line (which names
/// the answer's source: cold, warm or hit).
std::string reply_body(const serve::Answer& a) {
  std::string reply;
  serve::append_reply(reply, 0, "kill-link", a);
  return reply.substr(reply.find('\n') + 1);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Pod-scale base: hosts-per-segment x segments, one training-job ring per
/// segment (HPN training traffic is segment-local by design — the paper's
/// rail-optimized placement keeps collectives under one ToR tier), with
/// distinct caps (forces multi-round water-filling) and one flap in the
/// fault schedule so `run` has time-domain work. Segment-local rings keep
/// the flow components per-segment, so a kill-link re-solves the one job
/// the failure hits instead of the whole Pod — the workload shape the
/// warm-start path exists for.
fuzz::Scenario pod_scenario(std::uint32_t hosts, std::uint32_t segments,
                            std::uint32_t flow_count) {
  fuzz::Scenario s;
  s.seed = 20260808;
  s.topology = fuzz::TopologyKind::kHpnPod;
  s.size_knob = hosts;
  s.wiring = segments;
  // materialize() exposes 2 NICs per host, segment-major; ring each flow
  // to the next endpoint within its source's segment.
  const std::uint32_t eps_per_seg = hosts * 2;
  const std::uint32_t total_eps = eps_per_seg * segments;
  for (std::uint32_t i = 0; i < flow_count; ++i) {
    const std::uint32_t src = i % total_eps;
    const std::uint32_t seg = src / eps_per_seg;
    const std::uint32_t dst = seg * eps_per_seg + (src + 1) % eps_per_seg;
    s.flows.push_back({src, dst, std::int64_t{1} << 20, 40.0 + (i % 17)});
  }
  s.faults.push_back(
      {fuzz::ScenarioFault::Kind::kLinkFlap, 500000, 2, 1000000});
  return s;
}

struct Phase {
  std::string name;
  std::vector<double> us;  ///< per-query latencies
};

/// A closed-loop client for serve_loop: its input hands over one request
/// (query line, scenario text, `go`) at a time and reports EOF after the
/// last. The loop asks for more input after a `go` only once it has written
/// and flushed that batch's replies, so the time between two requests being
/// handed over is one query's latency through the protocol, and the output
/// written in between is its reply.
class ClosedLoopClient : public std::streambuf {
 public:
  ClosedLoopClient(std::vector<std::string> heads, std::string text, const std::string& out)
      : heads_{std::move(heads)}, text_{std::move(text)}, out_{&out} {}

  /// Latency of request i in microseconds.
  [[nodiscard]] double latency_us(std::size_t i) const {
    return std::chrono::duration<double, std::micro>(handed_[i + 1] - handed_[i]).count();
  }
  /// The reply bytes request i produced.
  [[nodiscard]] std::string reply(std::size_t i) const {
    return out_->substr(written_[i], written_[i + 1] - written_[i]);
  }

 protected:
  int_type underflow() override {
    if (piece_ == 0) {
      handed_.push_back(Clock::now());
      written_.push_back(out_->size());
      if (next_ == heads_.size()) return traits_type::eof();
    }
    std::string& piece = piece_ == 0 ? heads_[next_] : piece_ == 1 ? text_ : go_;
    if (piece_ == 2) ++next_;
    piece_ = (piece_ + 1) % 3;
    setg(piece.data(), piece.data(), piece.data() + piece.size());
    return traits_type::to_int_type(piece.front());
  }

 private:
  std::vector<std::string> heads_;
  std::string text_;
  std::string go_ = "go\n";
  const std::string* out_;
  std::size_t next_ = 0;
  int piece_ = 0;
  std::vector<Clock::time_point> handed_;
  std::vector<std::size_t> written_;
};

/// The output side: appends everything serve_loop writes to one string.
class StringSink : public std::streambuf {
 public:
  explicit StringSink(std::string& out) : out_{&out} {}

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) out_->push_back(static_cast<char>(ch));
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    out_->append(s, static_cast<std::size_t>(n));
    return n;
  }

 private:
  std::string* out_;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::banner("hpnsim serve: cold vs warm vs cached query latency",
                "capacity-planning queries re-use the base scenario's solver "
                "state instead of re-simulating from scratch");

  const std::uint32_t hosts = args.smoke ? 8 : 128;
  const std::uint32_t segments = args.smoke ? 2 : 16;
  // Every segment carries flows (the smoke base too), so a cold base routes
  // into every attachment set.
  const std::uint32_t flows = args.smoke ? 32 : 16384;
  // materialize() builds 2 rails (NICs) per host, and every NIC of one rail
  // in one segment shares its dual-ToR pair: one field per pair.
  const std::uint64_t fields_per_base = std::uint64_t{segments} * 2;
  const int cold_samples = args.smoke ? 2 : 3;
  const int warm_samples = args.smoke ? 12 : 60;
  const fuzz::Scenario base = pod_scenario(hosts, segments, flows);
  std::cout << "base: hpn_pod hosts=" << hosts << " segments=" << segments
            << " flows=" << flows << " (jobs=" << args.jobs << ")\n";

  const auto kill_query = [&](std::uint32_t cable) {
    serve::QueryRequest q;
    q.verb = serve::QueryRequest::Verb::kKillLink;
    q.arg0 = cable;
    q.scenario = base;
    return q;
  };

  // ---- cold: fresh engine per sample, full base build per query ----------
  Phase cold{"cold", {}};
  std::vector<std::string> cold_bytes;  // reply body per cable index
  for (int i = 0; i < cold_samples; ++i) {
    serve::QueryEngine engine;
    const auto start = Clock::now();
    const auto answers =
        engine.answer({kill_query(static_cast<std::uint32_t>(i))});
    cold.us.push_back(us_since(start));
    if (!answers[0].ok || answers[0].source != serve::Answer::Source::kCold) {
      std::cout << "FAIL: cold sample " << i << " did not evaluate cold\n";
      return 1;
    }
    cold_bytes.push_back(reply_body(answers[0]));
    if (engine.stats().bases_built != 1 || engine.stats().fields_built != fields_per_base) {
      std::cout << "FAIL: cold sample " << i << " built " << engine.stats().bases_built
                << " bases and " << engine.stats().fields_built << " distance fields; want 1 and "
                << fields_per_base << "\n";
      return 1;
    }
  }

  // ---- warm: one engine, distinct cables off the cached base -------------
  serve::QueryEngine engine{{.jobs = args.jobs}};
  (void)engine.answer({kill_query(1u << 20)});  // prime: builds the base
  const serve::EngineStats primed = engine.stats();
  // What the wall ratios stood for, exactly: after the prime no phase
  // builds a base or routes a flow.
  const auto built_nothing = [&](const char* phase) {
    const serve::EngineStats& now = engine.stats();
    if (now.bases_built == primed.bases_built && now.fields_built == primed.fields_built) {
      return true;
    }
    std::cout << "FAIL: the " << phase << " phase built " << now.bases_built - primed.bases_built
              << " bases and " << now.fields_built - primed.fields_built << " distance fields\n";
    return false;
  };
  Phase warm{"warm", {}};
  for (int i = 0; i < warm_samples; ++i) {
    const auto start = Clock::now();
    const auto answers =
        engine.answer({kill_query(static_cast<std::uint32_t>(i))});
    warm.us.push_back(us_since(start));
    if (!answers[0].ok || answers[0].source != serve::Answer::Source::kWarm) {
      std::cout << "FAIL: warm sample " << i << " was not a warm eval\n";
      return 1;
    }
    if (i < cold_samples &&
        reply_body(answers[0]) != cold_bytes[static_cast<std::size_t>(i)]) {
      std::cout << "FAIL: warm answer for cable " << i
                << " diverged from the cold answer\n";
      return 1;
    }
  }

  if (!built_nothing("warm")) return 1;

  // ---- cached: the same queries again, served off the result cache -------
  const serve::EngineStats before_cached = engine.stats();
  Phase cached{"cached", {}};
  for (int i = 0; i < warm_samples; ++i) {
    const auto start = Clock::now();
    const auto answers =
        engine.answer({kill_query(static_cast<std::uint32_t>(i))});
    cached.us.push_back(us_since(start));
    if (!answers[0].ok || answers[0].source != serve::Answer::Source::kHit) {
      std::cout << "FAIL: cached sample " << i << " missed the cache\n";
      return 1;
    }
    if (i < cold_samples &&
        reply_body(answers[0]) != cold_bytes[static_cast<std::size_t>(i)]) {
      std::cout << "FAIL: cached answer for cable " << i
                << " diverged from the cold answer\n";
      return 1;
    }
  }

  if (!built_nothing("cached")) return 1;
  if (engine.stats().computes != before_cached.computes ||
      engine.stats().cache_hits - before_cached.cache_hits !=
          static_cast<std::uint64_t>(warm_samples)) {
    std::cout << "FAIL: the cached phase evaluated "
              << engine.stats().computes - before_cached.computes << " queries and hit "
              << engine.stats().cache_hits - before_cached.cache_hits << " of " << warm_samples
              << "\n";
    return 1;
  }

  // ---- protocol: the warm queries through serve_loop vs the engine -------
  // Request 0 builds the base (cold); requests 1..warm_samples are warm
  // kill-links on cables 0..warm_samples-1. A fresh engine answers the same
  // sequence directly.
  std::vector<std::string> heads{"query kill-link " + std::to_string(1u << 20) + "\n"};
  for (int i = 0; i < warm_samples; ++i) {
    heads.push_back("query kill-link " + std::to_string(i) + "\n");
  }
  std::string transcript;
  ClosedLoopClient client{heads, base.to_text(), transcript};
  StringSink sink{transcript};
  {
    std::istream in{&client};
    std::ostream out{&sink};
    serve::serve_loop(in, out, serve::ServeOptions{.engine = {.jobs = 1}});
  }
  serve::QueryEngine direct{{.jobs = 1}};
  (void)direct.answer({kill_query(1u << 20)});
  Phase protocol{"protocol", {}};
  std::vector<double> engine_us;
  for (int i = 0; i < warm_samples; ++i) {
    const auto k = static_cast<std::size_t>(i) + 1;
    protocol.us.push_back(client.latency_us(k));
    const auto start = Clock::now();
    const auto answers = direct.answer({kill_query(static_cast<std::uint32_t>(i))});
    engine_us.push_back(us_since(start));
    std::string expected;
    serve::append_reply(expected, 0, "kill-link", answers[0]);
    if (answers[0].source != serve::Answer::Source::kWarm || client.reply(k) != expected) {
      std::cout << "FAIL: protocol reply to warm kill-link " << i
                << " is not the engine's warm answer printed by append_reply\n";
      return 1;
    }
  }

  // ---- byte-stability at any --jobs: one mixed batch, jobs ladder --------
  std::vector<serve::QueryRequest> batch;
  for (std::uint32_t i = 0; i < 8; ++i) batch.push_back(kill_query(100 + i));
  serve::QueryRequest add;
  add.verb = serve::QueryRequest::Verb::kAddJob;
  add.arg0 = 6;
  add.arg1 = 25.0;
  add.scenario = base;
  batch.push_back(add);
  serve::QueryRequest resize;
  resize.verb = serve::QueryRequest::Verb::kResize;
  resize.arg0 = hosts / 2;
  resize.scenario = base;
  batch.push_back(resize);
  std::vector<std::string> ladder_bytes;
  for (const int jobs : {1, args.jobs}) {
    serve::QueryEngine fresh{{.jobs = jobs}};
    std::string all;
    const std::vector<serve::Answer> answers = fresh.answer(batch);
    for (std::size_t i = 0; i < answers.size(); ++i) {
      if (!answers[i].ok) {
        std::cout << "FAIL: batch query errored: " << answers[i].error << "\n";
        return 1;
      }
      serve::append_reply(all, i, "query", answers[i]);
    }
    ladder_bytes.push_back(std::move(all));
  }
  const bool jobs_stable = ladder_bytes[0] == ladder_bytes[1];

  const double cold_med = median(cold.us);
  metrics::Table t{"serve query latency (kill-link on a cached pod base)"};
  t.columns({"phase", "queries", "median_us", "mean_us", "qps",
             "speedup_vs_cold"});
  for (const Phase& p : {cold, warm, cached, protocol}) {
    double total = 0.0;
    for (const double u : p.us) total += u;
    const double med = median(p.us);
    t.add_row({p.name, std::to_string(p.us.size()),
               metrics::Table::num(med, 1),
               metrics::Table::num(total / static_cast<double>(p.us.size()), 1),
               metrics::Table::num(1e6 * static_cast<double>(p.us.size()) /
                                       std::max(1.0, total),
                                   0),
               metrics::Table::num(cold_med / std::max(1e-9, med), 1)});
  }
  bench::emit(t, "bench_serve");
  std::cout << "answers byte-stable at jobs {1," << args.jobs << "}: "
            << (jobs_stable ? "yes" : "NO") << "\n";
  const double protocol_x = median(protocol.us) / std::max(1e-9, median(engine_us));
  std::cout << "warm kill-link p50: protocol " << metrics::Table::num(median(protocol.us), 1)
            << " us, engine " << metrics::Table::num(median(engine_us), 1) << " us, ratio "
            << metrics::Table::num(protocol_x, 2) << "x (replies byte-equal to append_reply)\n";

  if (!jobs_stable) {
    std::cout << "FAIL: batch answers changed with --jobs\n";
    return 1;
  }
  if (!args.smoke) {
    const double warm_x = cold_med / std::max(1e-9, median(warm.us));
    const double cached_x = cold_med / std::max(1e-9, median(cached.us));
    if (warm_x < 10.0 || cached_x < 25.0) {
      std::cout << "FAIL: warm " << metrics::Table::num(warm_x, 1)
                << "x / cached " << metrics::Table::num(cached_x, 1)
                << "x vs cold; the floors are 10x and 25x\n";
      return 1;
    }
    // What the text path around the engine may cost: measured 6-7x with the
    // from_chars parser and to_chars reply writer, 30-36x with iostreams.
    if (protocol_x > 12.0) {
      std::cout << "FAIL: a warm query through the protocol takes "
                << metrics::Table::num(protocol_x, 1)
                << "x the engine's answer; the bound is 12x\n";
      return 1;
    }
  }
  std::cout << "ok\n";
  return 0;
}
