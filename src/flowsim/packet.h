// Packet-level network simulation with PFC and DCQCN — the finest of the
// three engines.
//
// RoCEv2 deployments like HPN's run *lossless*: Priority Flow Control
// pauses the upstream port when an egress queue crosses Xoff, and DCQCN
// (ECN marks -> CNPs -> multiplicative decrease) keeps queues off the PFC
// cliff. This engine models individual MTU-sized packets through per-port
// FIFO queues with serialization + propagation delay, probabilistic ECN
// marking, CNP-driven DCQCN rate control, PFC pause/resume with its
// head-of-line blocking, and (in lossy mode) tail drops with timeout
// retransmission.
//
// Hot-path state is dense: ports_ is a LinkId-indexed flat vector (every
// per-packet touch is an array index, mirroring the max-min solver's
// layout), per-port FIFOs are capacity-retaining rings, and flows live in
// a slot map so FlowIds stay stable while storage is recycled. Combined
// with the simulator's pooled events, steady-state forwarding does not
// allocate.
//
// Use it for micro-scenarios (incast, HoL victims, engine cross-
// validation); the flow-level engines cover cluster scale.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "flowsim/completion.h"
#include "sim/simulator.h"
#include "topo/topology.h"

namespace hpn::flowsim {

struct PacketSimConfig {
  DataSize mtu = DataSize::bytes(4'096);
  /// Per egress-port buffer.
  DataSize port_buffer = DataSize::kilobytes(512);
  /// Lossless mode: PFC pause above xoff, resume below xon. When false,
  /// overflowing packets are tail-dropped and retransmitted on timeout.
  bool pfc = true;
  DataSize pfc_xoff = DataSize::kilobytes(256);
  DataSize pfc_xon = DataSize::kilobytes(128);
  /// ECN marking ramp.
  DataSize ecn_kmin = DataSize::kilobytes(40);
  DataSize ecn_kmax = DataSize::kilobytes(200);
  double ecn_pmax = 0.2;
  /// DCQCN: alpha-weighted multiplicative decrease per CNP, additive
  /// increase while CNP-free.
  double dcqcn_alpha_g = 0.0625;
  Duration dcqcn_rate_increase_period = Duration::micros(55);
  Bandwidth dcqcn_ai = Bandwidth::gbps(5);
  Duration retransmit_timeout = Duration::millis(1);
  std::uint64_t seed = 42;
};

class PacketSimulator {
 public:
  using CompletionFn = flowsim::CompletionFn;

  PacketSimulator(const topo::Topology& topology, sim::Simulator& simulator,
                  PacketSimConfig config = {});

  FlowId start_flow(std::vector<LinkId> path, DataSize size, Bandwidth line_rate,
                    CompletionFn on_complete = nullptr);

  // ---- Per-link statistics --------------------------------------------------
  [[nodiscard]] DataSize queue_of(LinkId link) const;
  [[nodiscard]] std::uint64_t drops_on(LinkId link) const;
  [[nodiscard]] std::uint64_t tx_bytes_on(LinkId link) const;
  [[nodiscard]] Duration paused_time(LinkId link) const;
  [[nodiscard]] std::uint64_t ecn_marks() const { return ecn_marks_; }
  [[nodiscard]] std::uint64_t packets_delivered() const { return delivered_packets_; }
  [[nodiscard]] Bandwidth flow_rate(FlowId id) const;
  [[nodiscard]] std::size_t active_flows() const { return active_flows_; }

  /// Drain-time audit: every port empty, and (once all flows completed) the
  /// byte ledger closes — injected = delivered + dropped + discarded. Call
  /// after the simulator ran to quiescence; no-op unless the auditor is
  /// enabled (and it must have been enabled before the first start_flow for
  /// the ledger to balance).
  void audit_quiescent() const;

 private:
  /// 20 bytes, so the propagation closure (this + LinkId + Packet) fits
  /// InlineCallback's buffer and a packet hop does not allocate.
  struct Packet {
    FlowId flow;
    std::uint32_t seq = 0;
    std::int32_t bytes = 0;
    std::uint32_t ticket = 0;  ///< Per-port FIFO audit ticket (auditor on).
    std::uint16_t hop = 0;     ///< Index into the flow's path.
    bool ecn_marked = false;
  };

  /// FIFO ring that keeps its capacity across drain cycles, so a port that
  /// once held k packets never allocates again until it exceeds k.
  class PacketRing {
   public:
    [[nodiscard]] bool empty() const { return count_ == 0; }
    [[nodiscard]] const Packet& front() const { return buf_[head_]; }
    void push_back(const Packet& pkt);
    void pop_front();

   private:
    std::vector<Packet> buf_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
  };

  struct PortState {
    PacketRing queue;
    std::int64_t queued_bytes = 0;
    bool transmitting = false;
    bool paused = false;
    TimePoint paused_since;
    Duration total_paused = Duration::zero();
    std::uint64_t drops = 0;
    std::uint64_t tx_bytes = 0;
    /// Upstream egress ports this (downstream) queue has PFC-paused.
    /// Sorted ascending (the resume sweep order is part of the determinism
    /// contract — it matches the seed engine's std::set iteration).
    std::vector<LinkId> paused_upstreams;
  };

  /// Field order is deliberate: everything the per-packet path touches
  /// (inject/ack bookkeeping, current rate, the path vector header) packs
  /// into the first cache line; DCQCN state and the completion callback —
  /// touched per CNP / per flow — sit in the second.
  struct SenderFlow {
    std::int64_t total_bytes = 0;
    std::int64_t sent_bytes = 0;        ///< Injected (first transmission).
    std::int64_t delivered_bytes = 0;   ///< Acknowledged at destination.
    double rate_bps = 0.0;
    std::uint32_t next_seq = 0;
    bool injector_armed = false;
    std::vector<LinkId> path;
    double line_rate_bps = 0.0;
    double alpha = 1.0;
    CompletionFn on_complete;
  };

  static constexpr std::uint32_t kNoFlowSlot = 0xFFFFFFFFu;

  [[nodiscard]] PortState& port(LinkId link) { return ports_[link.index()]; }
  [[nodiscard]] const PortState* find_port(LinkId link) const {
    return link.index() < ports_.size() ? &ports_[link.index()] : nullptr;
  }
  /// nullptr once the flow completed (late duplicates, stale timers).
  [[nodiscard]] SenderFlow* find_flow(FlowId id) {
    const std::size_t i = id.index();
    if (i >= flow_slot_of_.size() || flow_slot_of_[i] == kNoFlowSlot) return nullptr;
    return &flow_slots_[flow_slot_of_[i]];
  }
  [[nodiscard]] const SenderFlow* find_flow(FlowId id) const {
    return const_cast<PacketSimulator*>(this)->find_flow(id);
  }
  void erase_flow(FlowId id);

  void arm_injector(FlowId id);
  void inject_next(FlowId id);
  void enqueue(LinkId link, Packet pkt);
  void try_transmit(LinkId link);
  void packet_arrived(LinkId link, Packet pkt);
  void deliver(Packet pkt);
  void handle_cnp(FlowId id);
  void rate_increase_tick(FlowId id);
  /// PFC: pause the upstream egress port that fed this packet into the
  /// (now over-Xoff) queue; remembered so the queue can resume *all* of its
  /// paused feeders once it drains below Xon — resuming only the feeder of
  /// the departing packet would deadlock asymmetric incasts.
  void pause_upstream(PortState& down, const Packet& pkt);
  void resume_all(PortState& down);

  [[nodiscard]] double mark_probability(std::int64_t queue_bytes) const;

  const topo::Topology* topo_;
  sim::Simulator* sim_;
  PacketSimConfig config_;
  std::vector<PortState> ports_;  ///< LinkId-indexed, one entry per topology link.
  std::vector<SenderFlow> flow_slots_;
  std::vector<std::uint32_t> flow_free_;     ///< Recyclable flow_slots_ indices.
  std::vector<std::uint32_t> flow_slot_of_;  ///< FlowId value -> slot (kNoFlowSlot if done).
  std::size_t active_flows_ = 0;
  FlowId::underlying next_id_ = 1;
  std::uint64_t ecn_marks_ = 0;
  std::uint64_t delivered_packets_ = 0;
  std::uint64_t rng_state_ = 0x9E3779B97F4A7C15ULL;

  /// Byte ledger for the auditor. A packet ends in exactly one bucket:
  /// delivered at its destination, tail-dropped at a full port, or discarded
  /// in flight because its flow already completed (late duplicate). Only
  /// accumulated while the auditor is enabled.
  std::int64_t audit_injected_bytes_ = 0;
  std::int64_t audit_delivered_bytes_ = 0;
  std::int64_t audit_dropped_bytes_ = 0;
  std::int64_t audit_discarded_bytes_ = 0;
  std::int64_t audit_recredited_bytes_ = 0;
};

}  // namespace hpn::flowsim
