// Discrete-event simulation engine.
//
// A Simulator owns a virtual clock and an event queue. Events scheduled for
// the same instant fire in scheduling order (FIFO by sequence number), so a
// run is fully deterministic for a given seed and schedule.
//
// The queue is built for the packet engine's per-packet-per-hop event rate:
// events live in a slab-allocated pool of reusable slots (no shared_ptr, no
// per-event heap allocation when the callback captures fit inline), and
// EventId handles carry a slot generation so cancel() of a recycled slot is
// an O(1) tombstone that can never hit the wrong event. Cancelled slots
// stay referenced by the queue until lazily popped; when tombstones outgrow
// the live events the queue is compacted in place, so cancel-heavy
// workloads (timer re-arm churn) keep the pool bounded.
//
// The ready queue is one 4-ary min-heap of (time, seq) keys. Pop order is
// exactly (time, seq), so the determinism contract (same seed + schedule =>
// same event order) is a property of the structure, not of tuning. The
// flow engines keep only a few events pending at a time, so the heap stays
// shallow; the packet engine's 1024-NIC incast keeps ~33K pending and pays
// a log4(n) sift per pop (see EXPERIMENTS.md "Event core performance").
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "metrics/trace.h"
#include "sim/audit.h"
#include "sim/inline_callback.h"

namespace hpn::sim {

/// Opaque event handle: low 32 bits slot index, high 32 bits the slot's
/// generation at scheduling time (generations start at 1, so 0 is never a
/// valid handle). A handle goes stale the moment its event fires or is
/// cancelled; stale handles fail cancel() even after the slot is recycled.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class Simulator {
 public:
  using Callback = InlineCallback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedule `cb` at absolute time `t` (must not be in the past).
  EventId schedule_at(TimePoint t, Callback cb);

  /// Schedule `cb` after `d` of simulated time.
  EventId schedule_after(Duration d, Callback cb) {
    return schedule_at(now_ + d, std::move(cb));
  }

  /// Schedule `cb` to run at the current instant, after all callbacks
  /// already queued for this instant.
  EventId schedule_now(Callback cb) { return schedule_at(now_, std::move(cb)); }

  /// Cancel a pending event. Returns false if it already fired, was already
  /// cancelled, or never existed.
  bool cancel(EventId id);

  /// Run one event. Returns false when the queue is empty.
  bool step();

  /// Run until the queue drains.
  void run();

  /// Run events with time <= `t`, then set the clock to `t`.
  void run_until(TimePoint t);

  /// Run for `d` more simulated time.
  void run_for(Duration d) { run_until(now_ + d); }

  [[nodiscard]] std::size_t pending_events() const { return live_; }
  [[nodiscard]] std::uint64_t processed_events() const { return processed_; }

  /// Events ever scheduled on this simulator: fired, cancelled or pending.
  [[nodiscard]] std::uint64_t scheduled_events() const { return next_seq_ - 1; }

  /// Time of the next pending event, or TimePoint::far_future() if none.
  [[nodiscard]] TimePoint next_event_time() const;

  /// Slots ever allocated in the event pool (capacity, not live events).
  /// Bounded by peak live events + compaction slack, not by total events
  /// scheduled — the pool-bound tests pin this.
  [[nodiscard]] std::size_t event_pool_slots() const { return pool_.size(); }

  /// Cancelled events still occupying heap entries (lazily reclaimed).
  [[nodiscard]] std::size_t pending_tombstones() const { return tombstones_; }

  /// Simulation-wide trace sink. Disabled by default; every layer that holds
  /// a Simulator& records through this (see metrics/trace.h).
  [[nodiscard]] metrics::Tracer& tracer() { return tracer_; }
  [[nodiscard]] const metrics::Tracer& tracer() const { return tracer_; }

  /// Shorthand for `tracer().record(now(), ...)` — the common probe call.
  void trace(metrics::TraceEventKind kind, std::uint32_t a = metrics::kTraceNoId,
             std::uint32_t b = metrics::kTraceNoId, double value = 0.0,
             const char* label = nullptr) {
    tracer_.record(now_, kind, a, b, value, label);
  }

  /// Simulation-wide invariant auditor. Disabled by default (every probe is
  /// then a single branch); engines that hold a Simulator& check
  /// conservation/sanity properties through this (see sim/audit.h).
  [[nodiscard]] InvariantAuditor& auditor() { return auditor_; }
  [[nodiscard]] const InvariantAuditor& auditor() const { return auditor_; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// Exactly one cache line: 48-byte callback + metadata. Pops touch slots
  /// in heap order (effectively random across a pool that can dwarf L2), so
  /// one line per slot halves the miss bill of the old 80-byte layout.
  struct alignas(64) Slot {
    InlineCallback fn;
    std::uint32_t gen = 1;
    bool armed = false;  ///< Scheduled and neither fired nor cancelled.
    std::uint32_t next_free = kNoSlot;
  };
  static_assert(sizeof(Slot) == 64, "slot must stay a single cache line");

  /// Heap entries carry their (time, seq) key inline so sift compares touch
  /// only the contiguous heap array, never the pool — the pool is consulted
  /// once per pop (armed check + callback), not once per comparison.
  struct HeapEntry {
    TimePoint at;
    std::uint64_t seq = 0;  ///< Keeps ordering stable even for tombstones.
    std::uint32_t slot = kNoSlot;
  };

  static EventId make_id(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;  // min-heap on time
    return a.seq < b.seq;                  // then FIFO
  }

  std::uint32_t alloc_slot();
  void recycle_slot(std::uint32_t slot);

  static void sift_up(std::vector<HeapEntry>& h, std::size_t i);
  static void sift_down(std::vector<HeapEntry>& h, std::size_t i);
  static HeapEntry heap_pop(std::vector<HeapEntry>& h);

  /// Earliest *armed* entry without removing it (reclaims tombstones off the
  /// head on the way), or nullptr when the queue is empty.
  const HeapEntry* peek();
  /// Pop the earliest *armed* entry, reclaiming tombstones on the way.
  /// Returns an entry with slot == kNoSlot when the queue is empty.
  HeapEntry heap_pop_live();
  /// Rebuild the queue without tombstones once they outnumber live events.
  void maybe_compact();

  TimePoint now_ = TimePoint::origin();
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::size_t live_ = 0;
  std::size_t tombstones_ = 0;
  std::vector<Slot> pool_;
  std::uint32_t free_head_ = kNoSlot;

  /// 4-ary min-heap on (at, seq) over every pending entry, tombstones
  /// included.
  std::vector<HeapEntry> queue_;
  metrics::Tracer tracer_;
  InvariantAuditor auditor_;
};

/// Repeats a callback on a fixed period until stopped or the callback
/// returns false. RAII: destroying the timer stops it.
class PeriodicTimer {
 public:
  /// `tick` returns true to keep running. First tick fires after `period`
  /// unless `immediate` is set.
  PeriodicTimer(Simulator& simulator, Duration period, std::function<bool()> tick,
                bool immediate = false);
  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void stop();
  [[nodiscard]] bool running() const { return pending_ != kInvalidEvent; }

 private:
  void arm(Duration delay);

  Simulator& sim_;
  Duration period_;
  std::function<bool()> tick_;
  EventId pending_ = kInvalidEvent;
};

}  // namespace hpn::sim
