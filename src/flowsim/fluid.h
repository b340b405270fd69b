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
// Link state is found through a slot table dense by LinkId, so the per-tick
// loops index vectors instead of hashing. Determinism: each tick walks the
// links that any flow has touched in ascending LinkId order, so per-tick
// tracer samples (queue depth, then utilization, per watched link) are
// recorded in ascending LinkId order. Per-link arrival sums follow the flow
// map's iteration order, which fixes their floating-point rounding.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
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
  struct ActiveFlow {
    std::vector<LinkId> path;
    double cap_bps = 0.0;
    double rate_bps = 0.0;
    double goodput_bps = 0.0;
    double remaining_bits = 0.0;
    bool infinite = false;
    CompletionFn on_complete;
  };

  struct LinkState {
    double queue_bits = 0.0;
    double arrival_bps = 0.0;
    double delivered_bps = 0.0;
  };

  void tick();
  /// Per-tick rate/queue/conservation checks. Only called when the
  /// simulator's InvariantAuditor is enabled.
  void audit_tick();
  [[nodiscard]] double mark_probability(double queue_bits) const;
  void ensure_ticking();
  /// State of a link some flow has touched: two vector indexes, no hashing.
  [[nodiscard]] LinkState& state(LinkId link) { return links_[slot_of_[link.index()]]; }
  /// State of `link`, or nullptr if no flow ever used it (or it is invalid).
  [[nodiscard]] const LinkState* find_state(LinkId link) const;

  const topo::Topology* topo_;
  sim::Simulator* sim_;
  FluidConfig config_;
  std::unordered_map<FlowId, ActiveFlow> flows_;
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  /// Dense by LinkId index: the link's position in links_, or kNoSlot. A
  /// slot table keeps untouched links at 4 B each instead of a LinkState.
  std::vector<std::uint32_t> slot_of_;
  std::vector<LinkState> links_;       ///< Links flows have touched, first-touch order.
  std::vector<LinkId> used_links_;     ///< The same links, ascending LinkId.
  std::vector<double> audit_goodput_;  ///< Auditor scratch, parallel to links_.
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
