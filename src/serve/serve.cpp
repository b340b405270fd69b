#include "serve/serve.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <limits>
#include <list>
#include <memory>
#include <ostream>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "common/text.h"
#include "exec/parallel.h"
#include "flowsim/maxmin.h"
#include "flowsim/session.h"
#include "sim/simulator.h"

namespace hpn::serve {

namespace {

/// Content-address hash for the result/base caches: FNV-1a folded over
/// 8-byte words (same keying properties as the byte-at-a-time fuzz::fnv1a64,
/// ~8x the throughput — Pod scenarios wire-encode to hundreds of KB and the
/// hash runs on every query).
std::uint64_t content_hash(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, bytes.data() + i, 8);
    h = (h ^ w) * 1099511628211ull;
  }
  for (; i < bytes.size(); ++i) {
    h = (h ^ static_cast<unsigned char>(bytes[i])) * 1099511628211ull;
  }
  return h;
}

void finalize_summary(QueryResult& r) {
  r.stalled = 0;
  r.total_gbps = 0.0;
  double min_live = std::numeric_limits<double>::infinity();
  bool any_live = false;
  const auto account = [&](const std::vector<QueryResult::Flow>& flows) {
    for (const QueryResult::Flow& f : flows) {
      r.total_gbps += f.gbps;
      if (f.stalled()) {
        ++r.stalled;
      } else {
        min_live = std::min(min_live, f.gbps);
        any_live = true;
      }
    }
  };
  account(r.base_flows);
  account(r.job_flows);
  r.min_gbps = any_live ? min_live : 0.0;
}

}  // namespace

/// One warm-cached base scenario: the materialized cluster (which owns the
/// topology every solver below points into), the resolved per-flow base
/// solver and a reusable scratch solver that deltas are copy-assigned onto.
/// Time-domain `run` queries build their own Simulator/FlowSession over
/// this topology and drop them on return.
///
/// Invariant between evaluations: the topology is in *planning* state
/// (every link up except `planning_dead`). Evaluations may flip links but
/// must restore this state before returning — base and scratch solvers
/// cache link state and would otherwise drift from the topology.
struct QueryEngine::BaseState {
  fuzz::Scenario scenario;  ///< canonical (parse of canonical bytes)
  std::uint64_t hash = 0;
  fuzz::Materialized mat;
  std::vector<LinkId> planning_dead;
  flowsim::IncrementalMaxMin solver;
  flowsim::IncrementalMaxMin scratch;
  /// True while scratch holds the exact base-solver bits (possibly with a
  /// rolled-back delta pending re-rate — see sync_scratch below).
  bool scratch_synced = false;
  std::vector<flowsim::IncrementalMaxMin::Handle> handles;
  std::uint64_t fields_built = 0;  ///< routing fields built for this base so far

  BaseState(fuzz::Scenario s, std::uint64_t h)
      : scenario(std::move(s)),
        hash(h),
        mat(fuzz::materialize(scenario)),
        solver(mat.cluster.topo),
        scratch(mat.cluster.topo) {
    topo::Topology& topo = mat.cluster.topo;
    // Permanent faults (down_for == 0) are *planning* state: steady-state
    // allocations answer "after every unrepaired failure has landed".
    // Flaps are transient by definition and only matter to `run`.
    std::unordered_set<LinkId> seen;
    for (const fuzz::Materialized::Fault& f : mat.faults) {
      if (f.down_for > Duration::zero()) continue;
      if (f.kind == fuzz::ScenarioFault::Kind::kLinkFail) {
        if (seen.insert(f.cable).second) planning_dead.push_back(f.cable);
      } else if (f.kind == fuzz::ScenarioFault::Kind::kTorCrash) {
        for (const LinkId l : topo.out_links(f.tor)) {
          if (seen.insert(l).second) planning_dead.push_back(l);
        }
      }
    }
    for (const LinkId l : planning_dead) topo.set_duplex_up(l, false);
    solver.notify_topology_changed();
    // Base flows install in materialization order — the deterministic
    // ordering both the cold and warm paths share. Paths were routed
    // all-up by materialize(); flows crossing a planning-dead link stall.
    handles.reserve(mat.flows.size());
    for (const fuzz::Materialized::Flow& flow : mat.flows) {
      handles.push_back(solver.add_flow(flow.path, flow.cap.as_bits_per_sec()));
    }
    solver.resolve();
    fields_built = mat.routing.fields_built;
  }
};

namespace {

using BaseState = QueryEngine::BaseState;

/// Bring scratch to the exact base-solver bits. The first use pays a full
/// copy-assign; kill-link evals then keep scratch synced by *rolling back*
/// their delta (restore the planning topology, mark the cable's component
/// dirty) instead of re-copying O(flows) solver state per query. The
/// rolled-back component re-rates lazily inside the next eval's resolve(),
/// and a component re-rate is a pure function of (member flows, caps, link
/// state) — the incremental-vs-dense differential battery pins that
/// property — so the restored rates are bit-equal to the base. Verbs whose
/// rollback would churn handle/class free lists (add-job's probe flows)
/// clear the flag instead and the next eval re-copies.
void sync_scratch(BaseState& b) {
  if (!b.scratch_synced) {
    b.scratch = b.solver;
    b.scratch_synced = true;
  }
}

QueryResult base_alloc(const BaseState& b) {
  QueryResult r;
  r.base_flows.reserve(b.handles.size());
  for (const auto h : b.handles) {
    const double bps = b.solver.rate(h);
    r.base_flows.push_back({bps / 1e9});
  }
  finalize_summary(r);
  return r;
}

QueryResult eval_kill_link(BaseState& b, std::uint32_t cable_idx) {
  if (b.mat.cables.empty()) throw ConfigError{"kill-link: scenario has no cables"};
  topo::Topology& topo = b.mat.cluster.topo;
  const LinkId fwd = b.mat.cables[cable_idx % b.mat.cables.size()];
  const LinkId rev = topo.link(fwd).reverse;
  const bool was_fwd = topo.is_up(fwd);
  const bool was_rev = topo.is_up(rev);
  // The warm delta: re-solve only the component(s) the dead cable touches
  // on the synced scratch solver. Base paths are kept — a flow routed over
  // the cable stalls, exactly what an operator asking "which jobs does
  // this failure hit" wants to see.
  sync_scratch(b);
  topo.set_duplex_up(fwd, false);
  b.scratch.notify_link_changed(fwd);
  b.scratch.notify_link_changed(rev);
  b.scratch.resolve();
  QueryResult r;
  r.base_flows.reserve(b.handles.size());
  for (const auto h : b.handles) {
    const double bps = b.scratch.rate(h);
    r.base_flows.push_back({bps / 1e9});
  }
  // Roll the delta back instead of re-copying the base solver next query:
  // restore the planning topology and mark the cable dirty again. Nothing
  // reads scratch between evals, so the re-rate is deferred to the next
  // eval's resolve() (see sync_scratch), which restores the base bits.
  topo.set_link_up(fwd, was_fwd);
  topo.set_link_up(rev, was_rev);
  b.scratch.notify_link_changed(fwd);
  b.scratch.notify_link_changed(rev);
  finalize_summary(r);
  return r;
}

QueryResult eval_add_job(BaseState& b, std::uint32_t hosts, double gbps) {
  const std::vector<NodeId>& eps = b.mat.endpoints;
  const auto n = static_cast<std::uint32_t>(
      std::min<std::size_t>(hosts, eps.size()));
  if (n < 2) throw ConfigError{"add-job: need >= 2 placeable endpoints"};
  const topo::Topology& topo = b.mat.cluster.topo;
  sync_scratch(b);
  // Probe workload: a ring over the first n endpoints, routed like base
  // flows — but over the *planning* topology, the way a newly placed job
  // would actually be routed today.
  std::vector<fuzz::Materialized::Flow> ring(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ring[i].src = eps[i];
    ring[i].dst = eps[(i + 1) % n];
  }
  b.fields_built += fuzz::route_flows(topo, ring).fields_built;
  std::vector<flowsim::IncrementalMaxMin::Handle> job_handles;
  job_handles.reserve(n);
  const double cap_bps = Bandwidth::gbps(gbps).as_bits_per_sec();
  for (const fuzz::Materialized::Flow& f : ring) {
    if (f.path.empty()) {
      job_handles.push_back(flowsim::IncrementalMaxMin::kInvalidHandle);
    } else {
      job_handles.push_back(b.scratch.add_flow(f.path, cap_bps));
    }
  }
  b.scratch.resolve();
  QueryResult r;
  r.base_flows.reserve(b.handles.size());
  for (const auto h : b.handles) {
    const double bps = b.scratch.rate(h);
    r.base_flows.push_back({bps / 1e9});
  }
  r.job_flows.reserve(n);
  for (const auto h : job_handles) {
    if (h == flowsim::IncrementalMaxMin::kInvalidHandle) {
      r.job_flows.push_back({0.0});  // unroutable probe: stalled
    } else {
      const double bps = b.scratch.rate(h);
      r.job_flows.push_back({bps / 1e9});
    }
  }
  // Removing the probes would churn handle/class free lists relative to a
  // fresh copy; re-copy on the next eval instead of rolling back.
  b.scratch_synced = false;
  finalize_summary(r);
  return r;
}

QueryResult eval_run(BaseState& b) {
  QueryResult r = base_alloc(b);
  topo::Topology& topo = b.mat.cluster.topo;
  // The time-domain run starts all-up: the fault schedule itself replays
  // every failure (including the permanent ones planning mode pre-applies).
  for (const LinkId l : b.planning_dead) topo.set_duplex_up(l, true);

  // A fresh pair per query starts at t=0 with event seq 1 and FlowId 1, so
  // repeated runs fire byte-identical schedules. Flows that permanent
  // faults stall never complete; the session drops them with its slots.
  r.fcts.assign(b.mat.flows.size(), QueryResult::Fct{});
  sim::Simulator sim;
  flowsim::FlowSession session{topo, sim};
  for (std::size_t i = 0; i < b.mat.flows.size(); ++i) {
    const fuzz::Materialized::Flow& f = b.mat.flows[i];
    session.start_flow(f.path, f.size, f.cap, [&sim, &r, i](FlowId) {
      r.fcts[i].seconds = sim.now().since_origin().as_seconds();
    });
  }
  fuzz::schedule_faults(sim, topo, b.mat.faults, [&session] { session.refresh(); });
  sim.run();
  // Restore the planning-state invariant exactly: the schedule may have
  // left any subset of cables down.
  for (const LinkId c : b.mat.cables) topo.set_duplex_up(c, true);
  for (const LinkId l : b.planning_dead) topo.set_duplex_up(l, false);
  return r;
}

/// What an entry counts against EngineOptions::cache_bytes: its key plus
/// the bytes of a compact binary record of the result (a 6-byte header,
/// three u32 counts, 9 bytes per flow or FCT, a u32 and two f64 of
/// summary), which keeps `stats` cache_bytes and the eviction order
/// independent of std::vector capacities and struct padding.
std::size_t entry_cost(const std::string& key, const QueryResult& r) {
  return key.size() + 38 + 9 * (r.base_flows.size() + r.job_flows.size() + r.fcts.size());
}

}  // namespace

struct QueryEngine::CacheEntry {
  QueryResult result;
  std::list<std::string>::iterator lru;
};

struct QueryEngine::Impl {
  struct BaseSlot {
    std::unique_ptr<BaseState> state;
    std::list<std::uint64_t>::iterator lru;
  };
  std::unordered_map<std::uint64_t, BaseSlot> bases;
  std::list<std::uint64_t> base_lru;  ///< front = most recently used
  std::unordered_map<std::string, CacheEntry> cache;
  std::list<std::string> cache_lru;   ///< front = most recently used
};

QueryEngine::QueryEngine(EngineOptions options)
    : options_{options}, impl_{std::make_unique<Impl>()} {
  if (options_.jobs < 1) options_.jobs = 1;
  if (options_.max_bases < 1) options_.max_bases = 1;
}

QueryEngine::~QueryEngine() = default;

std::string QueryEngine::cache_key(std::uint64_t base_hash,
                                   const QueryRequest& q) const {
  std::string key;
  text::append_hex16(key, base_hash);
  key += '|';
  switch (q.verb) {
    case QueryRequest::Verb::kRun: key += "run"; break;
    case QueryRequest::Verb::kKillLink:
      key += "kill-link|";
      text::append_uint(key, q.arg0);
      break;
    case QueryRequest::Verb::kAddJob:
      key += "add-job|";
      text::append_uint(key, q.arg0);
      key += '|';
      text::append_g(key, q.arg1, 17);
      break;
    case QueryRequest::Verb::kResize:
      key += "resize|";
      text::append_uint(key, q.arg0);
      break;
  }
  return key;
}

QueryEngine::BaseState* QueryEngine::find_base(std::uint64_t hash) {
  const auto it = impl_->bases.find(hash);
  if (it == impl_->bases.end()) return nullptr;
  impl_->base_lru.splice(impl_->base_lru.begin(), impl_->base_lru, it->second.lru);
  return it->second.state.get();
}

void QueryEngine::adopt_base(std::unique_ptr<BaseState> base) {
  const std::uint64_t hash = base->hash;
  if (impl_->bases.count(hash) != 0) return;  // lost a (benign) build race
  impl_->base_lru.push_front(hash);
  impl_->bases.emplace(hash, Impl::BaseSlot{std::move(base), impl_->base_lru.begin()});
  while (impl_->bases.size() > options_.max_bases) {
    const std::uint64_t victim = impl_->base_lru.back();
    impl_->base_lru.pop_back();
    impl_->bases.erase(victim);
  }
  stats_.bases = impl_->bases.size();
}

void QueryEngine::cache_insert(const std::string& key, const QueryResult& result) {
  if (impl_->cache.count(key) != 0) return;
  const std::size_t cost = entry_cost(key, result);
  if (cost > options_.cache_bytes) return;  // larger than the whole cache
  impl_->cache_lru.push_front(key);
  impl_->cache.emplace(key, CacheEntry{result, impl_->cache_lru.begin()});
  stats_.cache_bytes += cost;
  while (stats_.cache_bytes > options_.cache_bytes && impl_->cache.size() > 1) {
    const std::string victim = impl_->cache_lru.back();
    impl_->cache_lru.pop_back();
    const auto it = impl_->cache.find(victim);
    stats_.cache_bytes -= entry_cost(victim, it->second.result);
    impl_->cache.erase(it);
    ++stats_.evictions;
  }
}

std::vector<Answer> QueryEngine::answer(const std::vector<QueryRequest>& batch) {
  stats_.queries += batch.size();
  std::vector<Answer> answers(batch.size());

  // Phase 1 (serial): canonicalize, hash, probe the result cache, dedupe.
  // The content address is the *binary* canonical form (encode_scenario of
  // the parsed scenario): same collision property as hashing to_text() —
  // parsing already erased every formatting difference — without paying
  // ostream double-formatting on every query.
  std::vector<std::string> keys(batch.size());
  std::vector<std::uint64_t> hashes(batch.size());
  std::unordered_map<std::string, std::size_t> first_for_key;
  std::vector<std::pair<std::size_t, std::size_t>> dupes;  // (dup, compute)
  std::vector<std::size_t> to_compute;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    hashes[i] = content_hash(encode_scenario(batch[i].scenario));
    keys[i] = cache_key(hashes[i], batch[i]);
    answers[i].base_hash = hashes[i];
    const auto it = impl_->cache.find(keys[i]);
    if (it != impl_->cache.end()) {
      impl_->cache_lru.splice(impl_->cache_lru.begin(), impl_->cache_lru, it->second.lru);
      answers[i].ok = true;
      answers[i].result = it->second.result;
      answers[i].source = Answer::Source::kHit;
      ++stats_.cache_hits;
      continue;
    }
    ++stats_.cache_misses;
    const auto [fit, inserted] = first_for_key.emplace(keys[i], i);
    if (inserted) {
      to_compute.push_back(i);
    } else {
      dupes.emplace_back(i, fit->second);
    }
  }

  // Phase 2 (serial): group unique computes by base scenario. Queries that
  // share a base must stay sequential (they share BaseState); distinct
  // bases are independent and fan out onto the pool.
  struct GroupTask {
    std::uint64_t hash = 0;
    std::vector<std::size_t> items;
    BaseState* base = nullptr;           // pre-existing => warm
    std::unique_ptr<BaseState> built;    // created by the worker => cold
    std::vector<Answer> answers;
    std::uint64_t warm = 0;
    std::uint64_t cold = 0;
    std::uint64_t fields_built = 0;
  };
  std::vector<GroupTask> groups;
  std::unordered_map<std::uint64_t, std::size_t> group_of;
  for (const std::size_t i : to_compute) {
    const auto [git, inserted] = group_of.emplace(hashes[i], groups.size());
    if (inserted) {
      GroupTask g;
      g.hash = hashes[i];
      g.base = find_base(hashes[i]);
      groups.push_back(std::move(g));
    }
    groups[git->second].items.push_back(i);
  }

  // Phase 3 (parallel): evaluate the groups. Workers touch only their own
  // GroupTask (plus its private/pre-owned BaseState); all shared-map
  // mutation stays on this thread, so replies are deterministic at any
  // jobs count.
  const auto run_group = [&batch, &hashes](GroupTask& g) {
    g.answers.resize(g.items.size());
    for (std::size_t k = 0; k < g.items.size(); ++k) {
      const std::size_t idx = g.items[k];
      const QueryRequest& q = batch[idx];
      Answer& a = g.answers[k];
      a.base_hash = hashes[idx];
      try {
        if (q.verb == QueryRequest::Verb::kResize) {
          // A resize answers a *different* base scenario. Evaluate it as a
          // private ephemeral base: sharing the engine's base map from a
          // worker would race with groups keyed on the resized hash.
          fuzz::Scenario resized = q.scenario;
          resized.size_knob = q.arg0;
          BaseState local{std::move(resized), 0};
          local.hash = content_hash(encode_scenario(local.scenario));
          a.result = base_alloc(local);
          g.fields_built += local.fields_built;
          a.source = Answer::Source::kCold;
          ++g.cold;
        } else {
          BaseState* b = g.base;
          bool warm = b != nullptr;
          if (b == nullptr) {
            if (g.built == nullptr) {
              g.built = std::make_unique<BaseState>(batch[idx].scenario, g.hash);
              g.fields_built += g.built->fields_built;
            } else {
              warm = true;  // built earlier in this same group
            }
            b = g.built.get();
          }
          const std::uint64_t fields_before = b->fields_built;
          switch (q.verb) {
            case QueryRequest::Verb::kRun: a.result = eval_run(*b); break;
            case QueryRequest::Verb::kKillLink:
              a.result = eval_kill_link(*b, q.arg0);
              break;
            case QueryRequest::Verb::kAddJob:
              a.result = eval_add_job(*b, q.arg0, q.arg1);
              break;
            case QueryRequest::Verb::kResize: break;  // handled above
          }
          g.fields_built += b->fields_built - fields_before;
          a.source = warm ? Answer::Source::kWarm : Answer::Source::kCold;
          ++(warm ? g.warm : g.cold);
        }
        a.ok = true;
      } catch (const std::exception& e) {
        a.ok = false;
        a.error = e.what();
      }
    }
  };
  exec::parallel_for(options_.jobs, groups.size(),
                     [&](std::size_t gi) { run_group(groups[gi]); });

  // Phase 4 (serial): adopt built bases, publish results, fill duplicates.
  for (GroupTask& g : groups) {
    stats_.computes += g.items.size();
    stats_.warm_evals += g.warm;
    stats_.cold_evals += g.cold;
    stats_.fields_built += g.fields_built;
    if (g.built != nullptr) {
      ++stats_.bases_built;
      adopt_base(std::move(g.built));
    }
    for (std::size_t k = 0; k < g.items.size(); ++k) {
      const std::size_t idx = g.items[k];
      answers[idx] = std::move(g.answers[k]);
      if (answers[idx].ok) {
        cache_insert(keys[idx], answers[idx].result);
      }
    }
  }
  for (const auto& [dup, src] : dupes) {
    const std::uint64_t keep_hash = answers[dup].base_hash;
    answers[dup] = answers[src];
    answers[dup].base_hash = keep_hash;
    // Deduped within the batch: one compute, two replies; the duplicate
    // reads as a hit (its payload came from the first computation).
    if (answers[dup].ok) answers[dup].source = Answer::Source::kHit;
  }
  stats_.bases = impl_->bases.size();
  return answers;
}

// ---------------------------------------------------------------------------
// Line-framed protocol loop.

void append_reply(std::string& out, std::size_t index, std::string_view verb,
                  const Answer& a) {
  out += "reply ";
  text::append_uint(out, index);
  if (!a.ok) {
    out += " error ";
    out += a.error;
    out += '\n';
    return;
  }
  const QueryResult& r = a.result;
  // Flow, job and FCT lines run 20-40 bytes ("f <j> <%.17g> ok").
  out.reserve(out.size() + 128 +
              40 * (r.base_flows.size() + r.job_flows.size() + r.fcts.size()));
  out += " ok ";
  out += verb;
  out += a.source == Answer::Source::kCold   ? " cold"
         : a.source == Answer::Source::kWarm ? " warm"
                                             : " hit";
  out += " base=";
  text::append_hex16(out, a.base_hash);
  out += "\nalloc ";
  text::append_uint(out, r.base_flows.size());
  out += '\n';
  const auto append_line = [&out](const char* tag, std::size_t j, double value,
                                  const char* state) {
    out += tag;
    text::append_uint(out, j);
    out += ' ';
    text::append_g(out, value, 17);
    out += state;
  };
  for (std::size_t j = 0; j < r.base_flows.size(); ++j) {
    append_line("f ", j, r.base_flows[j].gbps, r.base_flows[j].stalled() ? " stalled\n" : " ok\n");
  }
  if (!r.job_flows.empty()) {
    out += "job ";
    text::append_uint(out, r.job_flows.size());
    out += '\n';
    for (std::size_t j = 0; j < r.job_flows.size(); ++j) {
      append_line("j ", j, r.job_flows[j].gbps, r.job_flows[j].stalled() ? " stalled\n" : " ok\n");
    }
  }
  if (!r.fcts.empty()) {
    out += "fct ";
    text::append_uint(out, r.fcts.size());
    out += '\n';
    for (std::size_t j = 0; j < r.fcts.size(); ++j) {
      // The protocol prints an unfinished flow's FCT as 0.
      const bool done = r.fcts[j].completed();
      append_line("t ", j, done ? r.fcts[j].seconds : 0.0, done ? " done\n" : " aborted\n");
    }
  }
  out += "summary flows=";
  text::append_uint(out, r.base_flows.size() + r.job_flows.size());
  out += " stalled=";
  text::append_uint(out, r.stalled);
  out += " total_gbps=";
  text::append_g(out, r.total_gbps, 17);
  out += " min_gbps=";
  text::append_g(out, r.min_gbps, 17);
  out += "\nend\n";
}

namespace {

struct PendingQuery {
  std::string verb_name;
  std::string error;  ///< poisoned at read time; answered at flush
  bool valid = false;
  QueryRequest req;
};

void strip_cr(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

/// An optional sign and decimal digits with a value in [0, 2^32 - 1]; a
/// negative value fails and "-0" reads as 0.
bool read_u32(text::Cursor& c, std::uint32_t& v) {
  constexpr std::int64_t kMax = std::numeric_limits<std::uint32_t>::max();
  std::int64_t wide = 0;
  if (!c.read(wide) || wide > kMax || wide < 0) return false;
  v = static_cast<std::uint32_t>(wide);
  return true;
}

/// Parse "<verb> [args]" into `p.req`, or poison `p` with a pinned message.
void parse_verb(text::Cursor& c, PendingQuery& p) {
  const std::string_view verb = c.token();
  if (verb.empty()) {
    p.error = "query needs a verb (run | kill-link | add-job | resize)";
    return;
  }
  p.verb_name = verb;
  if (verb == "run") {
    p.req.verb = QueryRequest::Verb::kRun;
    if (!c.done()) p.error = "run takes no arguments";
  } else if (verb == "kill-link") {
    p.req.verb = QueryRequest::Verb::kKillLink;
    if (!read_u32(c, p.req.arg0) || !c.done()) {
      p.error = "kill-link takes one cable index";
    }
  } else if (verb == "add-job") {
    p.req.verb = QueryRequest::Verb::kAddJob;
    if (!read_u32(c, p.req.arg0) || !c.read(p.req.arg1) || !c.done()) {
      p.error = "add-job takes <hosts> <gbps>";
    } else if (p.req.arg0 < 2) {
      p.error = "add-job needs >= 2 hosts";
    } else if (!(p.req.arg1 > 0.0) || !(p.req.arg1 <= 10'000.0)) {
      p.error = "add-job gbps out of range (0, 10000]";
    }
  } else if (verb == "resize") {
    p.req.verb = QueryRequest::Verb::kResize;
    if (!read_u32(c, p.req.arg0) || !c.done()) {
      p.error = "resize takes one size knob";
    } else if (p.req.arg0 == 0) {
      p.error = "resize size must be >= 1";
    }
  } else {
    p.error = "unknown verb '" + std::string{verb} + "'";
  }
}

void emit_reply(std::ostream& out, std::size_t index, const PendingQuery& p,
                const Answer* a) {
  // A query poisoned at read time replies like one the engine failed.
  Answer poisoned;
  if (!p.error.empty()) {
    poisoned.error = p.error;
    a = &poisoned;
  }
  HPN_CHECK(a != nullptr);
  std::string reply;
  append_reply(reply, index, p.verb_name, *a);
  out.write(reply.data(), static_cast<std::streamsize>(reply.size()));
}

}  // namespace

int serve_loop(std::istream& in, std::ostream& out, const ServeOptions& options) {
  QueryEngine engine{options.engine};
  out << "hpnsim-serve v1\n";
  std::vector<PendingQuery> pending;

  const auto flush = [&] {
    if (pending.empty()) return;
    std::vector<QueryRequest> valid;
    std::vector<int> slot(pending.size(), -1);
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (pending[i].valid && pending[i].error.empty()) {
        slot[i] = static_cast<int>(valid.size());
        valid.push_back(std::move(pending[i].req));
      }
    }
    const std::vector<Answer> answers = engine.answer(valid);
    for (std::size_t i = 0; i < pending.size(); ++i) {
      emit_reply(out, i, pending[i],
                 slot[i] >= 0 ? &answers[static_cast<std::size_t>(slot[i])] : nullptr);
    }
    out.flush();
    pending.clear();
  };

  std::string line;
  bool disconnected = false;
  while (!disconnected && std::getline(in, line)) {
    strip_cr(line);
    text::Cursor lc{line};
    const std::string_view cmd = lc.token();
    if (cmd.empty()) continue;        // blank line between requests
    if (cmd[0] == '#') continue;      // full-line comment
    if (cmd == "query") {
      PendingQuery p;
      parse_verb(lc, p);
      // The inline scenario follows immediately, terminated by its own
      // `end` line (first token "end"). It is consumed even when the verb
      // was bad, so one bad query cannot desynchronize the framing of
      // everything after it.
      std::string scenario_text;
      bool oversized = false;
      bool terminated = false;
      while (std::getline(in, line)) {
        strip_cr(line);
        if (!oversized &&
            scenario_text.size() + line.size() + 1 > options.max_query_bytes) {
          oversized = true;
        }
        if (!oversized) {
          scenario_text += line;
          scenario_text += '\n';
        }
        if (text::Cursor{line}.token() == "end") {
          terminated = true;
          break;
        }
      }
      if (!terminated) {
        p.error = "disconnected mid-scenario";
        pending.push_back(std::move(p));
        disconnected = true;  // EOF: fall through to the implicit flush
        continue;
      }
      if (p.error.empty() && oversized) {
        p.error = "oversized query (limit " +
                  std::to_string(options.max_query_bytes) + " bytes)";
      }
      if (p.error.empty()) {
        std::string parse_error;
        auto s = fuzz::Scenario::from_text(scenario_text, &parse_error);
        if (!s) {
          p.error = "scenario parse error: " + parse_error;
        } else {
          p.req.scenario = std::move(*s);
          p.valid = true;
        }
      }
      pending.push_back(std::move(p));
    } else if (cmd == "go") {
      flush();
    } else if (cmd == "stats") {
      flush();
      const EngineStats& s = engine.stats();
      out << "stats queries=" << s.queries << " hits=" << s.cache_hits
          << " misses=" << s.cache_misses << " computes=" << s.computes
          << " warm=" << s.warm_evals << " cold=" << s.cold_evals
          << " evictions=" << s.evictions << " cache_bytes=" << s.cache_bytes
          << " bases=" << s.bases << "\n";
      out.flush();
    } else if (cmd == "quit") {
      flush();
      out << "bye\n";
      out.flush();
      return 0;
    } else {
      out << "protocol-error unknown command '" << cmd << "'\n";
      out.flush();
    }
  }
  flush();  // EOF is an implicit `go` + `quit`
  return 0;
}

}  // namespace hpn::serve
