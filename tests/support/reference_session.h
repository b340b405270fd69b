// Test-only oracle: the eager FlowSession that produced every bench,
// golden and results CSV before the session moved to per-class service
// clocks and a completion heap. Kept verbatim (header-only, renamed into
// namespace hpn::reference): every recompute settles, drains and re-rates
// by walking all active flows, and same-instant completions fire in
// unordered_map bucket order. The production session must match it on
// completion sets per instant and on FCTs within max(1 ns, 1e-9 relative);
// bench_e2e_session measures its speedup against this engine. Deliberately
// unoptimized; do not use outside tests/benches. Two edits since: the
// solver's aggregation mode is gone, so the constructor's `aggregation`
// parameter and the solver_aggregation() accessor went with it;
// FlowRecord, which the production session no longer has, is declared
// inside the class; and snapshot()/restore() went with the production
// session's.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "flowsim/maxmin.h"
#include "flowsim/session.h"
#include "sim/simulator.h"

namespace hpn::reference {

using flowsim::IncrementalMaxMin;
using flowsim::PathTable;

class FlowSession {
 public:
  using CompletionFn = std::function<void(FlowId)>;

  /// One completed (or aborted) flow, for offline analysis/replay. The path
  /// is interned — resolve the link sequence via paths().
  struct FlowRecord {
    FlowId id;
    TimePoint started;
    TimePoint finished;
    DataSize size;
    PathId path = PathId{0};
    std::uint32_t hops = 0;
    bool aborted = false;

    [[nodiscard]] Duration fct() const { return finished - started; }
    [[nodiscard]] Bandwidth average_rate() const { return size / fct(); }
  };

  FlowSession(const topo::Topology& topology, sim::Simulator& simulator);

  /// Starts a flow of `size` over `path`, source-capped at `cap`.
  /// `on_complete` fires when the last bit is delivered (it may start new
  /// flows). Zero-size flows complete at the current instant. Callers that
  /// reuse paths (collectives) should intern once via paths() and use the
  /// PathId overload.
  FlowId start_flow(const std::vector<LinkId>& path, DataSize size, Bandwidth cap,
                    CompletionFn on_complete = nullptr);
  FlowId start_flow(PathId path, DataSize size, Bandwidth cap,
                    CompletionFn on_complete = nullptr);

  /// Remove a flow before completion (no callback). Returns false if the
  /// flow already finished.
  bool abort_flow(FlowId id);

  /// Replace an in-flight flow's path (the §4 port failover: shared QP
  /// contexts let the NIC move a flow to its other port transparently).
  /// Returns false if the flow already finished.
  bool reroute_flow(FlowId id, const std::vector<LinkId>& new_path);
  bool reroute_flow(FlowId id, PathId new_path);

  /// Re-solve rates — call after link state changed (a flow whose path has
  /// a down link stalls at rate zero until rerouted or repaired). Only the
  /// components touching flipped links are re-solved.
  void refresh() {
    solver_.notify_topology_changed();
    schedule_recompute();
  }

  [[nodiscard]] std::size_t active_flows() const { return flows_.size(); }

  /// Currently allocated rate; nullopt if the flow is not active.
  [[nodiscard]] std::optional<Bandwidth> rate_of(FlowId id) const;

  /// Bits still to deliver; nullopt if not active.
  [[nodiscard]] std::optional<DataSize> remaining_of(FlowId id) const;

  /// Aggregate currently-allocated rate over a link.
  [[nodiscard]] Bandwidth throughput_on(LinkId link) const;

  /// Total bytes delivered across completed + in-flight flows.
  [[nodiscard]] DataSize delivered_total() const { return delivered_; }

  /// Incremental-solver counters (how much re-solving each change cost).
  [[nodiscard]] const IncrementalMaxMin::Stats& solver_stats() const {
    return solver_.stats();
  }

  /// The solver's path interner (intern once, start many flows by PathId).
  [[nodiscard]] PathTable& paths() { return solver_.paths(); }
  [[nodiscard]] const PathTable& paths() const { return solver_.paths(); }

  /// Record every flow's start/finish/path for offline analysis. Off by
  /// default (collectives create millions of flows in long runs).
  void enable_tracing(bool on) { tracing_ = on; }
  [[nodiscard]] const std::vector<FlowRecord>& trace() const { return trace_; }
  /// Write the trace as CSV (id,start_s,finish_s,fct_s,bytes,hops,aborted).
  void write_trace_csv(std::ostream& os) const;

 private:
  struct ActiveFlow {
    IncrementalMaxMin::Handle handle = IncrementalMaxMin::kInvalidHandle;
    double remaining_bits = 0.0;
    double rate_bps = 0.0;
    CompletionFn on_complete;
    TimePoint started;
    DataSize size;
    bool stalled = false;  ///< rate hit zero while bits remain (down link)
  };

  void record_trace(FlowId id, const ActiveFlow& flow, bool aborted);

  /// Rate/capacity/down-link/conservation checks after a recompute. Only
  /// called when the simulator's InvariantAuditor is enabled; the audit
  /// accumulators are valid if auditing was on before the first start_flow.
  void audit_allocation();

  /// Charge elapsed time against every flow's remaining bits.
  void settle_to_now();
  /// Recompute rates and (re)schedule the next completion event.
  void schedule_recompute();
  void recompute_and_reschedule();
  void on_completion_event();

  const topo::Topology* topo_;
  sim::Simulator* sim_;
  IncrementalMaxMin solver_;
  std::unordered_map<FlowId, ActiveFlow> flows_;
  FlowId::underlying next_id_ = 1;
  TimePoint last_settle_;
  sim::EventId pending_recompute_ = sim::kInvalidEvent;
  sim::EventId pending_completion_ = sim::kInvalidEvent;
  DataSize delivered_ = DataSize::zero();
  bool tracing_ = false;
  std::vector<FlowRecord> trace_;

  /// Conservation accounting for the auditor, in exact doubles (delivered_
  /// keeps its integer-truncation semantics for the public API). Only
  /// accumulated while the auditor is enabled.
  double audit_injected_bits_ = 0.0;
  double audit_delivered_bits_ = 0.0;
  double audit_aborted_bits_ = 0.0;
};


namespace ref_session {
constexpr double kBitEps = 1.0;  // flows within one bit of done are done
}  // namespace ref_session

inline FlowSession::FlowSession(const topo::Topology& topology, sim::Simulator& simulator)
    : topo_{&topology},
      sim_{&simulator},
      solver_{topology},
      last_settle_{simulator.now()} {}

inline FlowId FlowSession::start_flow(const std::vector<LinkId>& path, DataSize size,
                               Bandwidth cap, CompletionFn on_complete) {
  return start_flow(solver_.paths().intern(path), size, cap, std::move(on_complete));
}

inline FlowId FlowSession::start_flow(PathId path, DataSize size, Bandwidth cap,
                               CompletionFn on_complete) {
  HPN_CHECK_MSG(cap > Bandwidth::zero(), "flow needs a positive source cap");
  settle_to_now();
  const FlowId id{next_id_++};
  ActiveFlow f;
  f.handle = solver_.add_flow(path, cap.as_bits_per_sec());
  f.remaining_bits = static_cast<double>(size.as_bits());
  f.on_complete = std::move(on_complete);
  f.started = sim_->now();
  f.size = size;
  if (sim_->auditor().enabled()) {
    audit_injected_bits_ += static_cast<double>(size.as_bits());
  }
  flows_.emplace(id, std::move(f));
  sim_->trace(metrics::TraceEventKind::kFlowStart, static_cast<std::uint32_t>(id.value()),
              metrics::kTraceNoId, static_cast<double>(size.as_bytes()));
  schedule_recompute();
  return id;
}

inline void FlowSession::record_trace(FlowId id, const ActiveFlow& flow, bool aborted) {
  if (!tracing_) return;
  FlowRecord rec;
  rec.id = id;
  rec.started = flow.started;
  rec.finished = sim_->now();
  rec.size = flow.size;
  rec.path = solver_.path_id(flow.handle);
  rec.hops = static_cast<std::uint32_t>(solver_.paths().hops(rec.path));
  rec.aborted = aborted;
  trace_.push_back(rec);
}

inline void FlowSession::write_trace_csv(std::ostream& os) const {
  os << "id,start_s,finish_s,fct_s,bytes,hops,aborted\n";
  for (const FlowRecord& r : trace_) {
    os << r.id.value() << ',' << r.started.as_seconds() << ',' << r.finished.as_seconds()
       << ',' << r.fct().as_seconds() << ',' << static_cast<std::int64_t>(r.size.as_bytes())
       << ',' << r.hops << ',' << (r.aborted ? 1 : 0) << "\n";
  }
}

inline bool FlowSession::abort_flow(FlowId id) {
  settle_to_now();
  const auto it = flows_.find(id);
  if (it == flows_.end()) return false;
  record_trace(id, it->second, /*aborted=*/true);
  sim_->trace(metrics::TraceEventKind::kFlowAbort, static_cast<std::uint32_t>(id.value()),
              metrics::kTraceNoId, it->second.remaining_bits);
  if (sim_->auditor().enabled()) audit_aborted_bits_ += it->second.remaining_bits;
  solver_.remove_flow(it->second.handle);
  flows_.erase(it);
  schedule_recompute();
  return true;
}

inline bool FlowSession::reroute_flow(FlowId id, const std::vector<LinkId>& new_path) {
  return reroute_flow(id, solver_.paths().intern(new_path));
}

inline bool FlowSession::reroute_flow(FlowId id, PathId new_path) {
  const auto it = flows_.find(id);
  if (it == flows_.end()) return false;
  settle_to_now();
  const auto hops = static_cast<double>(solver_.paths().hops(new_path));
  solver_.set_path(it->second.handle, new_path);
  sim_->trace(metrics::TraceEventKind::kFlowReroute, static_cast<std::uint32_t>(id.value()),
              metrics::kTraceNoId, hops);
  schedule_recompute();
  return true;
}

inline std::optional<Bandwidth> FlowSession::rate_of(FlowId id) const {
  const auto it = flows_.find(id);
  if (it == flows_.end()) return std::nullopt;
  return Bandwidth::bits_per_sec(it->second.rate_bps);
}

inline std::optional<DataSize> FlowSession::remaining_of(FlowId id) const {
  const auto it = flows_.find(id);
  if (it == flows_.end()) return std::nullopt;
  return DataSize::bits(static_cast<std::int64_t>(it->second.remaining_bits));
}

inline Bandwidth FlowSession::throughput_on(LinkId link) const {
  // Session-side rates lag the solver's until the pending recompute fires,
  // so sum the settled per-flow rates rather than asking the solver.
  double sum = 0.0;
  for (const auto& [id, f] : flows_) {
    const std::vector<LinkId>& path = solver_.path(f.handle);
    if (std::find(path.begin(), path.end(), link) != path.end()) sum += f.rate_bps;
  }
  return Bandwidth::bits_per_sec(sum);
}

inline void FlowSession::settle_to_now() {
  const TimePoint now = sim_->now();
  const double dt = (now - last_settle_).as_seconds();
  last_settle_ = now;
  if (dt <= 0.0) return;
  const bool audit = sim_->auditor().enabled();
  for (auto& [id, f] : flows_) {
    const double moved = f.rate_bps * dt;
    // The audit ledger clamps at the flow boundary (delivered_ deliberately
    // keeps the seed's slight overcount so existing goldens stay stable).
    if (audit) audit_delivered_bits_ += std::min(moved, f.remaining_bits);
    f.remaining_bits = std::max(0.0, f.remaining_bits - moved);
    delivered_ += DataSize::bits(static_cast<std::int64_t>(moved));
  }
}

inline void FlowSession::schedule_recompute() {
  if (pending_recompute_ != sim::kInvalidEvent) return;  // batch same-instant changes
  pending_recompute_ = sim_->schedule_now([this] {
    pending_recompute_ = sim::kInvalidEvent;
    recompute_and_reschedule();
  });
}

inline void FlowSession::recompute_and_reschedule() {
  settle_to_now();

  // Fire completions for anything already drained (incl. zero-size flows).
  std::vector<std::pair<FlowId, CompletionFn>> done;
  const bool audit = sim_->auditor().enabled();
  for (auto it = flows_.begin(); it != flows_.end();) {
    if (it->second.remaining_bits <= ref_session::kBitEps) {
      // Sub-bit residue counts as delivered so the ledger closes exactly.
      if (audit) audit_delivered_bits_ += it->second.remaining_bits;
      record_trace(it->first, it->second, /*aborted=*/false);
      sim_->trace(metrics::TraceEventKind::kFlowFinish,
                  static_cast<std::uint32_t>(it->first.value()), metrics::kTraceNoId,
                  (sim_->now() - it->second.started).as_seconds());
      done.emplace_back(it->first, std::move(it->second.on_complete));
      solver_.remove_flow(it->second.handle);
      it = flows_.erase(it);
    } else {
      ++it;
    }
  }

  // Re-rate whatever the batched changes touched; unaffected components
  // keep their allocation and are not revisited by the solver.
  solver_.resolve();
  double min_finish_s = std::numeric_limits<double>::infinity();
  for (auto& [id, f] : flows_) {
    f.rate_bps = solver_.rate(f.handle);
    // Zero-rate flows are stalled on a down link; they hold position until
    // reroute_flow/refresh gives them a live path again.
    if (f.rate_bps > 0.0) {
      min_finish_s = std::min(min_finish_s, f.remaining_bits / f.rate_bps);
      if (f.stalled) {
        f.stalled = false;
        sim_->trace(metrics::TraceEventKind::kFlowResume,
                    static_cast<std::uint32_t>(id.value()));
      }
    } else if (!f.stalled) {
      f.stalled = true;
      sim_->trace(metrics::TraceEventKind::kFlowStall,
                  static_cast<std::uint32_t>(id.value()), metrics::kTraceNoId,
                  f.remaining_bits);
    }
  }

  // Exactly one pending completion event at the earliest finish.
  if (pending_completion_ != sim::kInvalidEvent) {
    sim_->cancel(pending_completion_);
    pending_completion_ = sim::kInvalidEvent;
  }
  if (std::isfinite(min_finish_s)) {
    // Round up so the flow has fully drained when the event fires.
    const Duration d = Duration::nanos(
        static_cast<std::int64_t>(std::ceil(min_finish_s * 1e9)) + 1);
    pending_completion_ = sim_->schedule_after(d, [this] {
      pending_completion_ = sim::kInvalidEvent;
      on_completion_event();
    });
  }

  if (audit) audit_allocation();

  // Completion callbacks run after rates settle; they may start new flows,
  // which batches into a fresh recompute at this same instant.
  for (auto& [id, fn] : done) {
    if (fn) fn(id);
  }
}

inline void FlowSession::audit_allocation() {
  sim::InvariantAuditor& auditor = sim_->auditor();
  const TimePoint now = sim_->now();
  // Tolerances are relative: rates are doubles accumulated through the
  // incremental solver, so allow a part-per-million of slack.
  constexpr double kRelEps = 1e-6;

  double inflight_bits = 0.0;
  std::unordered_map<LinkId, double> link_load;
  for (const auto& [id, f] : flows_) {
    inflight_bits += f.remaining_bits;
    const double cap = solver_.cap(f.handle);
    auditor.check(f.rate_bps <= cap * (1.0 + kRelEps) + 1.0,
                  sim::AuditRule::kRateOverCapacity, now, [&, fid = id] {
                    std::ostringstream os;
                    os << "flow " << fid.value() << " rate " << f.rate_bps
                       << " bps exceeds its source cap " << cap << " bps";
                    return os.str();
                  });
    bool path_up = true;
    for (const LinkId link : solver_.path(f.handle)) {
      link_load[link] += f.rate_bps;
      if (!topo_->is_up(link)) path_up = false;
    }
    auditor.check(f.rate_bps <= 0.0 || path_up, sim::AuditRule::kDownLinkForwarding,
                  now, [&, fid = id] {
                    std::ostringstream os;
                    os << "flow " << fid.value() << " allocated " << f.rate_bps
                       << " bps over a path with a down link";
                    return os.str();
                  });
  }

  for (const auto& [link, load] : link_load) {
    const double cap = topo_->link(link).capacity.as_bits_per_sec();
    auditor.check(load <= cap * (1.0 + kRelEps) + 1.0, sim::AuditRule::kRateOverCapacity,
                  now, [&] {
                    std::ostringstream os;
                    os << "link " << link.value() << " carries " << load
                       << " bps over capacity " << cap << " bps";
                    return os.str();
                  });
  }

  // Conservation: everything injected is delivered, aborted, or in flight.
  // The ledger uses exact doubles, so the only error is float accumulation.
  const double accounted = audit_delivered_bits_ + audit_aborted_bits_ + inflight_bits;
  const double scale = std::max(1.0, audit_injected_bits_);
  auditor.check(std::abs(audit_injected_bits_ - accounted) <= scale * 1e-9 + 1.0,
                sim::AuditRule::kConservation, now, [&] {
                  std::ostringstream os;
                  os << "flow ledger: injected " << audit_injected_bits_
                     << " bits != delivered " << audit_delivered_bits_ << " + aborted "
                     << audit_aborted_bits_ << " + in-flight " << inflight_bits;
                  return os.str();
                });
}

inline void FlowSession::on_completion_event() {
  recompute_and_reschedule();
}

}  // namespace hpn::reference
