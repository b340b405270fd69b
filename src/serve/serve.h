// `hpnsim serve`: the capacity-planning query daemon (ROADMAP item 4).
//
// Operators ask continuous what-if questions of a fabric — which link
// failure stalls which jobs, where the next job fits, what a resized Pod
// allocates — and a cold simulation per question throws away almost all of
// its work: consecutive questions share the same base scenario. The engine
// answers through two reuse layers:
//
//  1. A content-addressed result cache keyed on the *canonically
//     re-serialized* scenario bytes plus the normalized query, so any
//     textual variant of the same scenario (whitespace, comments, CRLF,
//     section interleaving) hits the same entry. An entry holds the
//     QueryResult itself and a hit copies it, so hit and miss replies
//     print the same doubles.
//
//  2. A warm-start base cache: the first query against a scenario builds a
//     BaseState — materialized cluster and a resolved per-flow
//     IncrementalMaxMin over the base workload. Single-mutation queries
//     run against a scratch engine that is copy-assigned from the base
//     solver once and then kept in sync by rolling each delta back
//     (kill-link) or re-copying (add-job); every delta goes through the
//     incremental path (notify_link_changed / add_flow), re-solving only
//     the affected flow components instead of re-simulating. A `run`
//     query reuses the base's cluster and paths but builds a fresh
//     Simulator/FlowSession for its time-domain replay, so every re-run
//     starts from t=0 with the same event order.
//
// Warm answers are byte-identical to cold ones *by construction*: the
// scratch solver holds the exact base-solver bits (a memberwise copy, or
// a rolled-back delta whose component re-rate — a pure function of member
// flows, caps and link state — restores them), and the cold path builds
// that same solver state from the same canonical scenario with the same
// deterministic ordering — same bits in, same water-filling arithmetic,
// same bits out. The serve equivalence battery pins this across every
// fabric kind.
//
// Query verbs (steady-state allocations answer over the planning topology:
// every permanent fault — down_for == 0 link_fail/tor_crash — applied):
//   run                  base allocation + time-domain FCTs with the full
//                        fault schedule replayed (links all-up at t=0)
//   kill-link <cable>    allocation with cable (index mod cable count)
//                        additionally down; base paths are kept, flows
//                        crossing the dead cable stall
//   add-job <n> <gbps>   allocation with a ring of n probe flows (over the
//                        first n endpoints, routed like base flows)
//                        added at the given source cap
//   resize <size>        base allocation of the scenario with its size
//                        knob replaced (evaluated as its own base)
//
// Batching: independent queries in one `go` batch are grouped by base
// scenario and the groups run through exec::parallel_for; queries sharing
// a base stay sequential within their group (they share BaseState).
// Replies are assembled in query order — transcripts are byte-stable at
// any --jobs. Duplicate queries in a batch compute once and reply twice.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "serve/wire.h"

namespace hpn::serve {

/// A parsed, validated query: a verb plus its scenario (already strictly
/// parsed from canonical or variant text).
struct QueryRequest {
  enum class Verb : std::uint8_t { kRun, kKillLink, kAddJob, kResize };
  Verb verb = Verb::kRun;
  std::uint32_t arg0 = 0;   ///< kill-link cable / add-job hosts / resize size
  double arg1 = 0.0;        ///< add-job source cap (Gbps)
  fuzz::Scenario scenario;
};

struct Answer {
  enum class Source : std::uint8_t { kCold, kWarm, kHit };
  bool ok = false;
  std::string error;        ///< set when !ok
  QueryResult result;       ///< valid when ok
  Source source = Source::kCold;
  /// FNV-1a over 8-byte words of encode_scenario(scenario): the `base=`
  /// field of the reply.
  std::uint64_t base_hash = 0;
};

struct EngineOptions {
  std::size_t cache_bytes = 64u << 20;  ///< result-cache cap (see EngineStats)
  std::size_t max_bases = 8;            ///< warm BaseStates kept (LRU)
  int jobs = 1;                         ///< threads per batch (1 = caller's)
};

struct EngineStats {
  std::uint64_t queries = 0;      ///< requests answered (incl. errors)
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t computes = 0;     ///< unique evaluations (dedup'd misses)
  std::uint64_t warm_evals = 0;   ///< computes served off an existing base
  std::uint64_t cold_evals = 0;   ///< computes that had to build their base
  std::uint64_t bases_built = 0;
  std::uint64_t fields_built = 0; ///< routing distance fields (materialize + add-job probes)
  std::uint64_t evictions = 0;    ///< result-cache LRU evictions
  /// Result-cache footprint: per entry, its key plus 38 + 9 bytes per
  /// flow and FCT (a compact binary record of the result).
  std::size_t cache_bytes = 0;
  std::size_t bases = 0;          ///< current warm bases held
};

class QueryEngine {
 public:
  /// Opaque warm-start state for one base scenario (defined in serve.cpp;
  /// public so the evaluation functions there can be plain free functions).
  struct BaseState;

  explicit QueryEngine(EngineOptions options = {});
  ~QueryEngine();
  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Answer a batch. Answers come back in request order and are
  /// byte-deterministic for a given (engine state, batch) at any jobs.
  std::vector<Answer> answer(const std::vector<QueryRequest>& batch);

  [[nodiscard]] const EngineStats& stats() const { return stats_; }

 private:
  struct CacheEntry;

  std::string cache_key(std::uint64_t base_hash, const QueryRequest& q) const;
  BaseState* find_base(std::uint64_t hash);
  void adopt_base(std::unique_ptr<BaseState> base);
  void cache_insert(const std::string& key, const QueryResult& result);

  EngineOptions options_;
  EngineStats stats_;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Line-framed protocol options (see README "Query service" for grammar).
struct ServeOptions {
  EngineOptions engine;
  std::size_t max_query_bytes = 1u << 20;  ///< inline scenario size cap
};

/// Append the protocol reply for answer `a` to query `index` of a batch
/// (`verb` is the verb word the query named): the exact bytes serve_loop
/// writes for it, from the "reply" line through "end" (one error line when
/// !a.ok). Doubles print as `%.17g`, so equal bytes mean bit-equal answers.
void append_reply(std::string& out, std::size_t index, std::string_view verb,
                  const Answer& a);

/// Run the daemon loop over a stream pair until EOF or `quit`. Testable
/// with stringstreams; `hpnsim_cli serve` binds it to stdin/stdout (wrap
/// with socat/nc for a socket). Returns the process exit code.
int serve_loop(std::istream& in, std::ostream& out, const ServeOptions& options = {});

}  // namespace hpn::serve
