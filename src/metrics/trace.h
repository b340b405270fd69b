// Simulation-wide tracing: typed events in a bounded ring buffer.
//
// The paper's evidence is time-series telemetry — queue lengths (Figs 14,
// 15c), per-port imbalance (Fig 13), failover timelines (Fig 18) — and HPN
// itself leans on INT-based telemetry (§10). The Tracer is the simulator's
// equivalent: every layer (flowsim engines, control plane, collectives,
// training loop) records typed events into one ring buffer owned by the
// Simulator, and benches/tests read them back as event sequences or
// TimeSeries instead of hand-rolling their own sampling.
//
// Disabled (the default) it is a single branch on a bool per call site —
// nothing allocates, nothing records. Enabled, events land in a ring of a
// fixed capacity (oldest overwritten first, drops counted) whose storage
// grows on demand: it holds what was recorded, doubling up to the capacity,
// so a run that records 65K events of a 1M-event ring pays for 65K. The
// ring exports as CSV or as Chrome trace_event JSON loadable in
// chrome://tracing / Perfetto; both exporters format into one reserved
// buffer with the text:: appenders and write it a chunk at a time.
//
// Read-path cost: the exporters and events_of(kind) walk the ring in place,
// O(retained events) with no copy; events() is the one accessor that copies
// the ring. series(kind, a) and events_of(kind, a) read a per-(kind, entity)
// index of ring slots. The first such read after the ring changes rebuilds
// the index in one pass over the ring; every read until the next change
// costs O(that entity's events). A bench reading one series per watched link
// after a run therefore pays one ring pass, not one per link.
#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "metrics/timeseries.h"

namespace hpn::metrics {

enum class TraceEventKind : std::uint8_t {
  // Flow lifecycle (event-driven + packet engines). a = FlowId.
  kFlowStart,    ///< value = flow size in bytes
  kFlowFinish,   ///< value = flow completion time in seconds
  kFlowAbort,    ///< value = bits left undelivered
  kFlowReroute,  ///< value = new hop count
  kFlowStall,    ///< rate hit zero on a down link; value = remaining bits
  kFlowResume,   ///< rate recovered after reroute/repair
  // Link state (control plane). a = LinkId.
  kLinkDown,
  kLinkUp,
  // Periodic per-link samples (fluid + packet engines, watched links only).
  kLinkUtilization,  ///< a = LinkId, value = delivered/capacity in [0,1]
  kQueueDepth,       ///< a = LinkId, value = queue depth in bytes
  // Packet-engine congestion control. a = LinkId (kPacketDrop: b = FlowId).
  kPfcPause,
  kPfcResume,
  kPacketDrop,
  // Collective spans (ccl). a = span id, b = world size; label = op name.
  kCollectiveBegin,  ///< value = per-GPU payload bytes
  kCollectiveEnd,
  // Training iteration spans (train). a = iteration number (1-based).
  kIterationBegin,
  kIterationEnd,  ///< value = iteration wall time in seconds
  // Cluster-scheduler job spans (cluster). a = job id, b = hosts allocated.
  kJobBegin,
  kJobEnd,  ///< value = job completion time (arrival -> finish) in seconds
};

std::string_view to_string(TraceEventKind kind);

inline constexpr std::uint32_t kTraceNoId = 0xFFFFFFFFu;

/// One recorded event. POD: `label` must be a static-storage string.
struct TraceEvent {
  TimePoint at;
  TraceEventKind kind{};
  std::uint32_t a = kTraceNoId;  ///< Primary entity (flow/link/node/span).
  std::uint32_t b = kTraceNoId;  ///< Secondary entity, if any.
  double value = 0.0;            ///< Kind-specific payload (see enum docs).
  const char* label = nullptr;   ///< Kind-specific name (collective op, ...).
};

class Tracer {
 public:
  /// Start recording into a ring of `capacity` events (~40 B each). The
  /// ring's storage grows with the events recorded and wraps once it holds
  /// `capacity`. A second enable() with a different capacity frees the
  /// storage and clears. Capacity is capped at 2^32 events (index slots are
  /// 32-bit).
  void enable(std::size_t capacity = 1u << 20);
  void disable() { enabled_ = false; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Hot path: one predictable branch when disabled.
  void record(TimePoint at, TraceEventKind kind, std::uint32_t a = kTraceNoId,
              std::uint32_t b = kTraceNoId, double value = 0.0,
              const char* label = nullptr) {
    if (!enabled_) return;
    push(TraceEvent{at, kind, a, b, value, label});
  }

  // ---- Sampling filter ------------------------------------------------------
  // Discrete events are always recorded while enabled; *periodic samples*
  // (utilization, queue depth) are recorded only for watched links, so
  // enabling the tracer on a Pod-scale run stays cheap.
  void watch_link(LinkId link);
  void watch_all_links(bool on) { watch_all_ = on; }
  [[nodiscard]] bool watching(LinkId link) const {
    if (!enabled_) return false;
    if (watch_all_) return true;
    return link.index() < watched_.size() && watched_[link.index()] != 0;
  }

  /// Monotonic id for pairing begin/end span events.
  std::uint32_t begin_span() { return next_span_++; }

  // ---- Introspection --------------------------------------------------------
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Events overwritten because the ring wrapped.
  [[nodiscard]] std::uint64_t dropped() const { return total_ - ring_.size(); }
  [[nodiscard]] bool empty() const { return total_ == 0; }

  /// Retained events, oldest first. Copies the whole ring.
  [[nodiscard]] std::vector<TraceEvent> events() const;
  /// Retained events of one kind (optionally one primary entity), in order.
  /// With an entity this reads the per-entity index.
  [[nodiscard]] std::vector<TraceEvent> events_of(
      TraceEventKind kind, std::uint32_t a = kTraceNoId) const;
  /// Periodic samples of `kind` for entity `a` as a TimeSeries — the bench
  /// replacement for hand-rolled queue/utilization sampling. Reads the
  /// per-entity index. Const reads may run concurrently with each other.
  [[nodiscard]] TimeSeries series(TraceEventKind kind, std::uint32_t a) const;

  // ---- Exporters ------------------------------------------------------------
  /// time_ns,kind,a,b,value,label — one line per retained event.
  void write_csv(std::ostream& os) const;
  /// Chrome trace_event JSON (chrome://tracing, Perfetto): spans become
  /// async begin/end pairs, samples become counter tracks, everything else
  /// becomes instant events.
  void write_chrome_json(std::ostream& os) const;
  /// Write one of the above to `path` ('.json' selects Chrome format).
  /// Returns false if the file cannot be opened.
  bool save(const std::string& path) const;

 private:
  void push(const TraceEvent& ev);
  /// Writes `head`, append(buffer, ev) for every retained event oldest
  /// first, then `tail`: formatted into one reserved buffer that goes to
  /// `os` each time it holds a chunk.
  template <typename F>
  void write_chunked(std::ostream& os, std::string_view head, F&& append,
                     std::string_view tail) const;
  /// Calls f(ev) for every retained event, oldest first, in place.
  template <typename F>
  void for_each_event(F&& f) const;
  /// Calls f(ev) for every retained event of `kind` whose primary entity is
  /// exactly `a`, oldest first, rebuilding the index first if it is stale.
  template <typename F>
  void for_each_of(TraceEventKind kind, std::uint32_t a, F&& f) const;

  bool enabled_ = false;
  bool watch_all_ = false;
  /// Holds min(total_, capacity_) events: appended while it is shorter
  /// than capacity_, overwritten at slot total_ % capacity_ after.
  std::vector<TraceEvent> ring_;
  std::size_t capacity_ = 0;
  std::uint64_t total_ = 0;  ///< Events ever recorded.
  /// Bumped by every change to the retained events (push, enable with a new
  /// capacity). total_ cannot stand in for it: re-enabling with a new
  /// capacity and recording as many events leaves total_ where it was.
  std::uint64_t generation_ = 0;
  std::uint32_t next_span_ = 1;
  std::vector<std::uint8_t> watched_;  ///< Dense by LinkId index.

  // Per-(kind, a) index: ring slots of each entity's events, oldest first.
  // Built lazily by const reads under index_mu_; valid while
  // index_generation_ == generation_.
  static constexpr std::uint64_t kNoIndex = ~std::uint64_t{0};
  mutable std::mutex index_mu_;
  mutable std::uint64_t index_generation_ = kNoIndex;
  mutable std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> index_;
};

}  // namespace hpn::metrics
