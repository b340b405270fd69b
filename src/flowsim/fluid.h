// Fluid (tick-based) network simulation with per-port queues and
// DCQCN-style ECN rate control.
//
// The event-driven FlowSession answers "how fast do transfers finish"; this
// engine answers "what do the switch queues look like while they do" —
// Figs 13/14 (ToR downstream ports under typical-Clos vs dual-plane) and
// Fig 15c (Agg queue buildup) are measured here. Rate control is the
// deterministic fluid limit of DCQCN: additive increase toward line rate,
// multiplicative decrease proportional to the ECN marking probability of
// the most-congested hop, queues integrating (inflow - capacity).
//
// Layout: active flows sit in one table in ascending FlowId order (ids only
// grow, so a start appends), each path a span into one array of link slots;
// link state is dense by slot, found through a table dense by LinkId. A tick
// is three sweeps: flows add their rate into each hop's arrival sum, links
// integrate their queues and compute their feedback (bottleneck scale and
// ECN marking probability) once, and flows fold that feedback over their
// hops. Completions and stop_flow compact the table and the hop array.
//
// Determinism: the order is defined by FlowId and LinkId alone. Per-link
// arrival sums add flows in ascending FlowId order, which fixes their
// floating-point rounding. Per-tick tracer samples (queue depth, then
// utilization, per watched link) are recorded in ascending LinkId order.
// Flows that finish in a tick leave the table first; then their kFlowFinish
// records and completion callbacks run in ascending FlowId order. A
// callback may start or stop flows.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "sim/simulator.h"
#include "topo/topology.h"

namespace hpn::flowsim {

struct FluidConfig {
  Duration tick = Duration::micros(100);
  /// Additive increase per tick, as a fraction of the flow's cap.
  double additive_increase = 0.01;
  /// Multiplicative decrease factor applied as rate *= (1 - md * p_mark).
  double md_factor = 0.5;
  /// ECN ramp: marking probability 0 below kmin, pmax above kmax.
  DataSize ecn_kmin = DataSize::kilobytes(10);
  DataSize ecn_kmax = DataSize::megabytes(1);
  double ecn_pmax = 0.2;
  /// Flows start at this fraction of their cap.
  double initial_rate = 1.0;
  double min_rate_fraction = 0.001;
  /// Record tracer queue/utilization samples for watched links every N
  /// ticks (long runs sample sparsely so the trace ring holds the window).
  int trace_sample_every = 1;
};

class FluidSimulator {
 public:
  using CompletionFn = std::function<void(FlowId)>;

  FluidSimulator(const topo::Topology& topology, sim::Simulator& simulator,
                 FluidConfig config = {});
  ~FluidSimulator();
  FluidSimulator(const FluidSimulator&) = delete;
  FluidSimulator& operator=(const FluidSimulator&) = delete;

  /// Infinite-size flows run until stop_flow.
  FlowId start_flow(std::vector<LinkId> path, Bandwidth cap,
                    DataSize size = DataSize::bits(std::numeric_limits<std::int64_t>::max()),
                    CompletionFn on_complete = nullptr);
  bool stop_flow(FlowId id);

  [[nodiscard]] std::size_t active_flows() const { return flows_.size(); }
  [[nodiscard]] DataSize queue_of(LinkId link) const;
  /// Offered (pre-drop) aggregate arrival rate at the link, last tick.
  [[nodiscard]] Bandwidth arrival_rate(LinkId link) const;
  /// Delivered rate through the link, last tick (<= capacity).
  [[nodiscard]] Bandwidth delivered_rate(LinkId link) const;
  [[nodiscard]] Bandwidth flow_rate(FlowId id) const;
  /// Goodput of a flow last tick (send rate scaled by path bottlenecks).
  [[nodiscard]] Bandwidth flow_goodput(FlowId id) const;

  [[nodiscard]] const FluidConfig& config() const { return config_; }

 private:
  /// One active flow; flows_ keeps them in ascending id order.
  struct Flow {
    FlowId id;
    std::uint32_t first_hop = 0;  ///< Path start in hops_.
    std::uint32_t hop_count = 0;
    double cap_bps = 0.0;
    double rate_bps = 0.0;
    double goodput_bps = 0.0;
    double remaining_bits = 0.0;
    bool infinite = false;
  };

  struct LinkState {
    double queue_bits = 0.0;
    double delivered_bps = 0.0;
    double cap_bps = 0.0;  ///< Read from the topology when a flow first touches it.
  };

  /// What a link tells the flows crossing it, computed once per tick.
  struct Feedback {
    double scale = 1.0;   ///< cap / arrival when over capacity, else 1.
    double p_mark = 0.0;  ///< ECN marking probability at the updated queue.
  };

  /// A touched link and its slot; used_links_ walks them in LinkId order.
  struct UsedLink {
    LinkId id;
    std::uint32_t slot = 0;
  };

  void tick();
  /// Per-tick rate/queue/conservation checks. Only called when the
  /// simulator's InvariantAuditor is enabled.
  void audit_tick();
  [[nodiscard]] double mark_probability(double queue_bits) const;
  void ensure_ticking();
  /// Slot of `link`, assigned on first touch.
  std::uint32_t touch(LinkId link);
  /// Slot of `link`, or kNoSlot if no flow ever used it (or it is invalid).
  [[nodiscard]] std::uint32_t find_slot(LinkId link) const;
  /// Position of `id` in flows_, or flows_.size() if it is not active.
  [[nodiscard]] std::size_t find_flow(FlowId id) const;

  const topo::Topology* topo_;
  sim::Simulator* sim_;
  FluidConfig config_;
  std::vector<Flow> flows_;              ///< Ascending FlowId.
  std::vector<CompletionFn> callbacks_;  ///< Parallel to flows_.
  std::vector<std::uint32_t> hops_;      ///< Every path's link slots, in flows_ order.
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  /// Dense by LinkId index: the link's slot, or kNoSlot. A slot table keeps
  /// untouched links at 4 B each instead of a LinkState.
  std::vector<std::uint32_t> slot_of_;
  // Link state by slot (first-touch order).
  std::vector<LinkState> links_;
  std::vector<double> arrival_;      ///< Offered rate into the link, last tick.
  std::vector<Feedback> feedback_;
  std::vector<UsedLink> used_links_;  ///< The touched links, ascending LinkId.
  std::vector<double> audit_goodput_;  ///< Auditor scratch, by slot.
  FlowId::underlying next_id_ = 1;
  std::unique_ptr<sim::PeriodicTimer> timer_;
  std::uint64_t tick_count_ = 0;

  /// Conservation ledger for the auditor (finite flows only; accumulated
  /// while the auditor is enabled).
  double audit_injected_bits_ = 0.0;
  double audit_delivered_bits_ = 0.0;
  double audit_aborted_bits_ = 0.0;
};

}  // namespace hpn::flowsim
