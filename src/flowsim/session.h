// Event-driven flow-level network simulation.
//
// Flows start, share bandwidth max-min fairly, and complete; rates are
// recomputed only when the flow set changes, and the next completion is
// scheduled exactly. This gives precise transfer times for collective
// rounds (Figs 15-17, 19) without per-packet cost. Multiple starts or
// completions at one instant are batched into a single recompute.
//
// Rates come from a persistent IncrementalMaxMin engine: each recompute
// re-solves only the connected component(s) of the flow-conflict graph
// that actually changed (flows started/finished/rerouted, links flipped),
// so failure-driven runs pay for the blast radius of the event instead of
// a cold solve over every active flow.
//
// Progress is settled lazily, per flow. A flow keeps one service clock:
// bits served since it (re)joined, plus the rate and instant of its last
// change; its remaining bits are its bits to deliver minus clock(now),
// computed when asked. One indexed 4-ary min-heap orders the active flows by
// the instant they drain, ties broken by FlowId. Each 16-byte entry carries
// its key, FlowId and Handle, and the positions live in one dense
// Handle-indexed array, so sifting and tie-breaking never read a flow's
// slot. A recompute therefore costs
// O((flows re-rated + flows completed) * log n), not O(active flows): only
// the flows the solver re-rated advance their clock and get a new heap
// key, and the completion event is rescheduled only when the heap minimum
// moves. Rates (rate_of, throughput_on) are the solver's, as of the last
// recompute.
//
// Flows that complete at one instant fire their callbacks in ascending
// FlowId order, after the rates of the survivors have been re-solved.
//
// Starting and completing a flow allocates nothing in steady state: the
// completion callback (flowsim/completion.h) stores ccl's message closures
// inline (ccl static_asserts it), the FlowId index is open-addressed, and
// the drain list that carries finished flows' callbacks out of their slots
// is reused scratch.
#pragma once

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "flowsim/completion.h"
#include "flowsim/maxmin.h"
#include "sim/simulator.h"

namespace hpn::flowsim {

class FlowSession {
 public:
  using CompletionFn = flowsim::CompletionFn;

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

  [[nodiscard]] std::size_t active_flows() const { return handle_of_.size(); }

  /// Allocated rate as of the last recompute; nullopt if not active.
  [[nodiscard]] std::optional<Bandwidth> rate_of(FlowId id) const;

  /// Bits still to deliver; nullopt if not active.
  [[nodiscard]] std::optional<DataSize> remaining_of(FlowId id) const;

  /// Aggregate allocated rate over a link, one term per path occurrence —
  /// O(flows on the link).
  [[nodiscard]] Bandwidth throughput_on(LinkId link) const;

  /// Bits delivered: every completed flow's size, the bits aborted flows
  /// had delivered before their abort, and each in-flight flow's served
  /// bits (clamped at its size). O(active flows).
  [[nodiscard]] DataSize delivered_total() const;

  /// Work the session did: what each event cost, independent of host speed.
  /// Counts from construction.
  struct Stats {
    std::uint64_t recomputes = 0;       ///< batched drain + re-rate passes
    std::uint64_t classes_rerated = 0;  ///< flows a recompute moved to a new rate
    std::uint64_t heap_updates = 0;     ///< completion-heap inserts, erases, re-keys
    std::uint64_t completions = 0;      ///< flows drained (callbacks fired)
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Incremental-solver counters (how much re-solving each change cost).
  [[nodiscard]] const IncrementalMaxMin::Stats& solver_stats() const {
    return solver_.stats();
  }

  /// Active network flows and the water-filling items they form (host-local
  /// flows never reach the solver). Each flow is one item, so the two are
  /// equal; both are kept for reports that print the ratio.
  struct SolverItems {
    std::size_t flows = 0;
    std::size_t macro_flows = 0;
  };
  [[nodiscard]] SolverItems solver_aggregation() const {
    return {solver_.network_flow_count(), solver_.network_flow_count()};
  }

  /// The solver's path interner (intern once, start many flows by PathId).
  [[nodiscard]] PathTable& paths() { return solver_.paths(); }
  [[nodiscard]] const PathTable& paths() const { return solver_.paths(); }

 private:
  using Handle = IncrementalMaxMin::Handle;
  static constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

  /// One active flow, indexed by its solver Handle (id == 0: free slot).
  struct Slot {
    FlowId id{0};
    bool stalled = false;            ///< rate hit zero while bits remain (down link)
    double bits = 0.0;               ///< bits to deliver when it (re)joined
    double clock = 0.0;              ///< bits served since it (re)joined, as of `at`
    double rate = 0.0;               ///< rate since `at`
    TimePoint at;
    TimePoint started;
    DataSize size;
    CompletionFn on_complete;
  };

  /// Slots grow in fixed 1024-entry chunks: growth never copies or frees a
  /// large block, and the chunks a destroyed session releases are the size
  /// the next session asks for, so long-lived processes that build a
  /// session per query (serve's `run`) do not fragment the heap.
  template <class T>
  class Chunked {
   public:
    [[nodiscard]] std::size_t size() const { return size_; }
    T& operator[](std::size_t i) { return chunks_[i >> kShift][i & kMask]; }
    const T& operator[](std::size_t i) const { return chunks_[i >> kShift][i & kMask]; }
    void resize(std::size_t n) {
      while (chunks_.size() << kShift < n) chunks_.push_back(std::make_unique<T[]>(kChunk));
      size_ = std::max(size_, n);
    }

   private:
    static constexpr std::size_t kShift = 10;
    static constexpr std::size_t kChunk = std::size_t{1} << kShift;
    static constexpr std::size_t kMask = kChunk - 1;
    std::vector<std::unique_ptr<T[]>> chunks_;
    std::size_t size_ = 0;
  };

  /// FlowId -> Handle for the active flows: open addressing with linear
  /// probing and backward-shift erase, so no entry allocates.
  class IdIndex {
   public:
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }
    /// kNone when `id` is not active.
    [[nodiscard]] Handle find(FlowId id) const;
    void insert(FlowId id, Handle h);
    void erase(FlowId id);

   private:
    struct Entry {
      FlowId::underlying id = 0;  ///< 0: empty (FlowIds start at 1)
      Handle h = 0;
    };
    [[nodiscard]] std::size_t home(FlowId::underlying id) const;
    std::vector<Entry> table_;
    std::size_t size_ = 0;
  };

  /// Completion-heap entry: the instant (s) a flow drains (inf while
  /// stalled) and its FlowId, the tie-break, kept inline so sifting reads
  /// no slot.
  struct HeapEntry {
    double key;
    FlowId::underlying id;
    Handle h;
  };
  static_assert(sizeof(HeapEntry) == 16, "four heap children share a cache line");

  [[nodiscard]] static double clock_at(const Slot& s, TimePoint now) {
    return s.clock + s.rate * (now - s.at).as_seconds();
  }
  /// Lazily settled bits `h` still has to deliver (never negative).
  [[nodiscard]] double remaining(Handle h) const;

  /// Restart `h`'s clock with `bits` to go at its solver rate and key it
  /// into the completion heap.
  void attach(Handle h, double bits);
  /// Take `h` out of the completion heap.
  void detach(Handle h);
  /// Advance `h`'s clock to now and switch it to `rate`.
  void rerate(Handle h, double rate);
  void rekey(Handle h);
  /// Heap order: earlier key first, then smaller FlowId.
  [[nodiscard]] static bool before(const HeapEntry& a, const HeapEntry& b) {
    return a.key != b.key ? a.key < b.key : a.id < b.id;
  }
  void heap_sift_up(std::uint32_t i);
  void heap_sift_down(std::uint32_t i);

  /// Rate/capacity/down-link/conservation checks plus the completion-heap
  /// and lazy-settle rules after a recompute. Only called when the
  /// simulator's InvariantAuditor is enabled; the audit state is valid if
  /// auditing was on before the first start_flow.
  void audit_allocation();
  /// Auditor on: eagerly settle the audit shadow (the per-flow remaining
  /// bits the lazy clocks must reproduce) and the conservation ledger.
  void settle_to_now();

  /// Recompute rates and (re)schedule the next completion event.
  void schedule_recompute();
  void recompute_and_reschedule();
  void reschedule_completion();

  const topo::Topology* topo_;
  sim::Simulator* sim_;
  IncrementalMaxMin solver_;
  Chunked<Slot> slots_;
  IdIndex handle_of_;
  std::vector<HeapEntry> heap_;         ///< one entry per active flow
  std::vector<std::uint32_t> heap_pos_; ///< Handle -> index in heap_ (kNone: absent)
  std::vector<Handle> touched_local_;   ///< host-local flows since last recompute
  FlowId::underlying next_id_ = 1;
  sim::EventId pending_recompute_ = sim::kInvalidEvent;
  sim::EventId pending_completion_ = sim::kInvalidEvent;
  Handle scheduled_ = kNone;  ///< heap minimum the event was set for
  double scheduled_key_ = 0.0;
  std::int64_t delivered_bits_ = 0;  ///< completed sizes + aborted flows' served bits
  Stats stats_;

  // Recompute scratch.
  std::vector<Handle> done_;
  /// Drained flows' ids and callbacks, fired after the re-rate. A recompute
  /// runs from the event loop only, never inside a callback, so one list
  /// serves every recompute; one a burst grew past 1,024 entries is freed.
  std::vector<std::pair<FlowId, CompletionFn>> fire_;
  struct StallEvent {
    FlowId id;
    bool stall;
    double bits;
  };
  std::vector<StallEvent> stall_events_;
  std::vector<double> audit_load_;  ///< audit_allocation scratch, LinkId-indexed

  /// Auditor state: the eager shadow (remaining bits per Handle, settled at
  /// every event like the pre-lazy session) and the conservation ledger in
  /// exact doubles. Only accumulated while the auditor is enabled.
  std::vector<double> audit_shadow_;
  TimePoint last_settle_;
  double audit_injected_bits_ = 0.0;
  double audit_delivered_bits_ = 0.0;
  double audit_aborted_bits_ = 0.0;
};

}  // namespace hpn::flowsim
