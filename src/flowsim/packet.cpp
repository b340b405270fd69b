#include "flowsim/packet.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace hpn::flowsim {

void PacketSimulator::PacketRing::push_back(const Packet& pkt) {
  if (count_ == buf_.size()) {
    // Grow by re-linearizing into a fresh buffer (rare: only when a port
    // exceeds its historical peak depth).
    std::vector<Packet> grown;
    grown.reserve(std::max<std::size_t>(8, buf_.size() * 2));
    for (std::size_t i = 0; i < count_; ++i) grown.push_back(buf_[(head_ + i) % buf_.size()]);
    grown.resize(grown.capacity());
    buf_ = std::move(grown);
    head_ = 0;
  }
  buf_[(head_ + count_) % buf_.size()] = pkt;
  ++count_;
}

void PacketSimulator::PacketRing::pop_front() {
  head_ = (head_ + 1) % buf_.size();
  --count_;
}

PacketSimulator::PacketSimulator(const topo::Topology& topology, sim::Simulator& simulator,
                                 PacketSimConfig config)
    : topo_{&topology}, sim_{&simulator}, config_{config} {
  HPN_CHECK(config_.mtu > DataSize::zero());
  HPN_CHECK(config_.pfc_xon < config_.pfc_xoff);
  ports_.resize(topo_->links().size());
  rng_state_ ^= config_.seed;
}

void PacketSimulator::erase_flow(FlowId id) {
  const std::uint32_t slot = flow_slot_of_[id.index()];
  flow_slot_of_[id.index()] = kNoFlowSlot;
  flow_slots_[slot] = SenderFlow{};  // release path + completion captures promptly
  flow_free_.push_back(slot);
  --active_flows_;
}

FlowId PacketSimulator::start_flow(std::vector<LinkId> path, DataSize size,
                                   Bandwidth line_rate, CompletionFn on_complete) {
  HPN_CHECK(!path.empty());
  HPN_CHECK(size > DataSize::zero());
  HPN_CHECK_MSG(path.size() <= std::numeric_limits<std::uint16_t>::max(),
                "flow path has more hops than a packet's hop index holds");
  for (const LinkId l : path) {
    HPN_CHECK_MSG(l.index() < ports_.size(), "flow path uses a link the topology lacks");
  }
  const FlowId id{next_id_++};

  std::uint32_t slot;
  if (!flow_free_.empty()) {
    slot = flow_free_.back();
    flow_free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(flow_slots_.size());
    flow_slots_.emplace_back();
  }
  if (flow_slot_of_.size() <= id.index()) flow_slot_of_.resize(id.index() + 1, kNoFlowSlot);
  flow_slot_of_[id.index()] = slot;
  ++active_flows_;

  SenderFlow& f = flow_slots_[slot];
  f.path = std::move(path);
  f.total_bytes = static_cast<std::int64_t>(size.as_bytes());
  f.rate_bps = line_rate.as_bits_per_sec();
  f.line_rate_bps = f.rate_bps;
  f.on_complete = std::move(on_complete);
  sim_->trace(metrics::TraceEventKind::kFlowStart, static_cast<std::uint32_t>(id.value()),
              metrics::kTraceNoId, static_cast<double>(size.as_bytes()), "packet");
  arm_injector(id);
  rate_increase_tick(id);
  return id;
}

void PacketSimulator::arm_injector(FlowId id) {
  SenderFlow* f = find_flow(id);
  if (f == nullptr) return;
  if (f->injector_armed || f->sent_bytes >= f->total_bytes) return;
  f->injector_armed = true;
  const double mtu_bits = static_cast<double>(config_.mtu.as_bits());
  const Duration gap = Duration::seconds(mtu_bits / std::max(1e6, f->rate_bps));
  sim_->schedule_after(gap, [this, id] {
    SenderFlow* flow = find_flow(id);
    if (flow == nullptr) return;
    flow->injector_armed = false;
    inject_next(id);
  });
}

void PacketSimulator::inject_next(FlowId id) {
  SenderFlow& f = *find_flow(id);
  if (f.sent_bytes >= f.total_bytes) return;
  // NIC-side backpressure: a full first-hop buffer stalls the injector.
  const PortState& first = port(f.path.front());
  if (first.queued_bytes + config_.mtu.as_bits() / 8 >
      static_cast<std::int64_t>(config_.port_buffer.as_bytes())) {
    arm_injector(id);
    return;
  }
  Packet pkt;
  pkt.flow = id;
  pkt.seq = f.next_seq++;
  pkt.bytes = static_cast<std::int32_t>(std::min<std::int64_t>(
      static_cast<std::int64_t>(config_.mtu.as_bytes()), f.total_bytes - f.sent_bytes));
  pkt.hop = 0;
  f.sent_bytes += pkt.bytes;
  if (sim_->auditor().enabled()) audit_injected_bytes_ += pkt.bytes;
  enqueue(f.path.front(), pkt);
  arm_injector(id);
}

double PacketSimulator::mark_probability(std::int64_t queue_bytes) const {
  const auto kmin = static_cast<std::int64_t>(config_.ecn_kmin.as_bytes());
  const auto kmax = static_cast<std::int64_t>(config_.ecn_kmax.as_bytes());
  if (queue_bytes <= kmin) return 0.0;
  if (queue_bytes >= kmax) return config_.ecn_pmax;
  return config_.ecn_pmax * static_cast<double>(queue_bytes - kmin) /
         static_cast<double>(kmax - kmin);
}

void PacketSimulator::enqueue(LinkId link, Packet pkt) {
  PortState& p = port(link);
  const auto buffer = static_cast<std::int64_t>(config_.port_buffer.as_bytes());
  if (p.queued_bytes + pkt.bytes > buffer) {
    if (!config_.pfc) {
      // Tail drop; the sender will re-inject the bytes after its timeout.
      ++p.drops;
      if (sim_->auditor().enabled()) audit_dropped_bytes_ += pkt.bytes;
      sim_->trace(metrics::TraceEventKind::kPacketDrop,
                  static_cast<std::uint32_t>(link.value()),
                  static_cast<std::uint32_t>(pkt.flow.value()),
                  static_cast<double>(pkt.bytes));
      sim_->schedule_after(config_.retransmit_timeout, [this, id = pkt.flow,
                                                        bytes = pkt.bytes] {
        SenderFlow* f = find_flow(id);
        if (f == nullptr) return;
        f->sent_bytes -= bytes;  // go-back: bytes go out again
        if (sim_->auditor().enabled()) audit_recredited_bytes_ += bytes;
        arm_injector(id);
      });
      return;
    }
    // PFC should have paused upstream before overflow; absorb the overshoot
    // (headroom exists on real ports for in-flight frames).
  }

  // ECN marking decision at enqueue time.
  rng_state_ ^= rng_state_ << 13;
  rng_state_ ^= rng_state_ >> 7;
  rng_state_ ^= rng_state_ << 17;
  const double u = static_cast<double>(rng_state_ >> 11) / 9007199254740992.0;
  if (u < mark_probability(p.queued_bytes)) {
    pkt.ecn_marked = true;
    ++ecn_marks_;
  }

  if (sim_->auditor().enabled()) {
    const std::uint64_t ticket =
        sim_->auditor().fifo_enqueue(static_cast<std::uint32_t>(link.value()));
    HPN_CHECK_MSG(ticket <= std::numeric_limits<std::uint32_t>::max(),
                  "FIFO audit ticket on link " << link.value() << " wrapped 32 bits");
    pkt.ticket = static_cast<std::uint32_t>(ticket);
  }
  p.queued_bytes += pkt.bytes;
  p.queue.push_back(pkt);
  if (sim_->tracer().watching(link)) {
    sim_->trace(metrics::TraceEventKind::kQueueDepth,
                static_cast<std::uint32_t>(link.value()), metrics::kTraceNoId,
                static_cast<double>(p.queued_bytes));
  }
  if (config_.pfc && p.queued_bytes > static_cast<std::int64_t>(config_.pfc_xoff.as_bytes())) {
    pause_upstream(p, pkt);
  }
  try_transmit(link);
}

void PacketSimulator::pause_upstream(PortState& down, const Packet& pkt) {
  if (pkt.hop == 0) return;  // the NIC injector backpressures via buffer
  const SenderFlow* f = find_flow(pkt.flow);
  if (f == nullptr) return;
  const LinkId upstream = f->path[pkt.hop - 1];
  const auto pos =
      std::lower_bound(down.paused_upstreams.begin(), down.paused_upstreams.end(), upstream);
  if (pos == down.paused_upstreams.end() || *pos != upstream) {
    down.paused_upstreams.insert(pos, upstream);
  }
  PortState& up = port(upstream);
  if (!up.paused) {
    up.paused = true;
    up.paused_since = sim_->now();
    sim_->trace(metrics::TraceEventKind::kPfcPause,
                static_cast<std::uint32_t>(upstream.value()));
  }
}

void PacketSimulator::resume_all(PortState& down) {
  for (const LinkId upstream : down.paused_upstreams) {
    PortState& up = port(upstream);
    if (up.paused) {
      up.paused = false;
      up.total_paused += sim_->now() - up.paused_since;
      sim_->trace(metrics::TraceEventKind::kPfcResume,
                  static_cast<std::uint32_t>(upstream.value()));
      try_transmit(upstream);
    }
  }
  down.paused_upstreams.clear();
}

void PacketSimulator::try_transmit(LinkId link) {
  PortState& p = port(link);
  if (p.transmitting || p.paused || p.queue.empty()) return;
  p.transmitting = true;
  const Packet pkt = p.queue.front();
  const topo::Link& l = topo_->link(link);
  const Duration serialize = DataSize::bytes(pkt.bytes) / l.capacity;
  sim_->schedule_after(serialize, [this, link] {
    PortState& out = port(link);
    out.transmitting = false;
    HPN_CHECK(!out.queue.empty());
    const Packet sent = out.queue.front();
    out.queue.pop_front();
    out.queued_bytes -= sent.bytes;
    out.tx_bytes += static_cast<std::uint64_t>(sent.bytes);
    if (sim_->auditor().enabled()) {
      sim::InvariantAuditor& auditor = sim_->auditor();
      auditor.fifo_dequeue(static_cast<std::uint32_t>(link.value()), sent.ticket,
                           sim_->now());
      auditor.check(out.queued_bytes >= 0, sim::AuditRule::kNegativeQueue, sim_->now(),
                    [&] {
                      std::ostringstream os;
                      os << "port " << link.value() << " queued_bytes went to "
                         << out.queued_bytes;
                      return os.str();
                    });
    }
    if (sim_->tracer().watching(link)) {
      sim_->trace(metrics::TraceEventKind::kQueueDepth,
                  static_cast<std::uint32_t>(link.value()), metrics::kTraceNoId,
                  static_cast<double>(out.queued_bytes));
    }
    // PFC resume when the queue drains below Xon: wake every paused feeder.
    if (config_.pfc &&
        out.queued_bytes < static_cast<std::int64_t>(config_.pfc_xon.as_bytes())) {
      resume_all(out);
    }
    const Duration propagation = topo_->link(link).latency;
    auto arrive = [this, link, sent] { packet_arrived(link, sent); };
    static_assert(sim::InlineCallback::fits_inline<decltype(arrive)>(),
                  "the per-hop propagation closure must not allocate");
    sim_->schedule_after(propagation, std::move(arrive));
    try_transmit(link);
  });
}

void PacketSimulator::packet_arrived(LinkId link, Packet pkt) {
  (void)link;
  SenderFlow* f = find_flow(pkt.flow);
  if (f == nullptr) {  // flow already completed (late duplicate)
    if (sim_->auditor().enabled()) audit_discarded_bytes_ += pkt.bytes;
    return;
  }
  pkt.hop += 1;
  if (pkt.hop >= f->path.size()) {
    deliver(pkt);
    return;
  }
  enqueue(f->path[pkt.hop], pkt);
}

void PacketSimulator::deliver(Packet pkt) {
  SenderFlow* f = find_flow(pkt.flow);
  if (f == nullptr) {
    if (sim_->auditor().enabled()) audit_discarded_bytes_ += pkt.bytes;
    return;
  }
  ++delivered_packets_;
  if (sim_->auditor().enabled()) audit_delivered_bytes_ += pkt.bytes;
  f->delivered_bytes += pkt.bytes;
  if (pkt.ecn_marked) {
    // CNP back to the sender (reverse path propagation, a few us).
    sim_->schedule_after(Duration::micros(5), [this, id = pkt.flow] { handle_cnp(id); });
  }
  if (f->delivered_bytes >= f->total_bytes) {
    auto done = std::move(f->on_complete);
    const FlowId id = pkt.flow;
    erase_flow(id);
    sim_->trace(metrics::TraceEventKind::kFlowFinish, static_cast<std::uint32_t>(id.value()),
                metrics::kTraceNoId, 0.0, "packet");
    if (done) done(id);
  }
}

void PacketSimulator::handle_cnp(FlowId id) {
  SenderFlow* f = find_flow(id);
  if (f == nullptr) return;
  f->alpha = (1.0 - config_.dcqcn_alpha_g) * f->alpha + config_.dcqcn_alpha_g;
  f->rate_bps = std::max(1e9, f->rate_bps * (1.0 - f->alpha / 2.0));
}

void PacketSimulator::rate_increase_tick(FlowId id) {
  SenderFlow* f = find_flow(id);
  if (f == nullptr) return;
  f->alpha *= 1.0 - config_.dcqcn_alpha_g;
  f->rate_bps =
      std::min(f->line_rate_bps, f->rate_bps + config_.dcqcn_ai.as_bits_per_sec());
  sim_->schedule_after(config_.dcqcn_rate_increase_period,
                       [this, id] { rate_increase_tick(id); });
}

DataSize PacketSimulator::queue_of(LinkId link) const {
  const PortState* p = find_port(link);
  return p == nullptr ? DataSize::zero() : DataSize::bytes(p->queued_bytes);
}

std::uint64_t PacketSimulator::tx_bytes_on(LinkId link) const {
  const PortState* p = find_port(link);
  return p == nullptr ? 0 : p->tx_bytes;
}

std::uint64_t PacketSimulator::drops_on(LinkId link) const {
  const PortState* p = find_port(link);
  return p == nullptr ? 0 : p->drops;
}

Duration PacketSimulator::paused_time(LinkId link) const {
  const PortState* p = find_port(link);
  if (p == nullptr) return Duration::zero();
  Duration total = p->total_paused;
  if (p->paused) total += sim_->now() - p->paused_since;
  return total;
}

Bandwidth PacketSimulator::flow_rate(FlowId id) const {
  const SenderFlow* f = find_flow(id);
  return f == nullptr ? Bandwidth::zero() : Bandwidth::bits_per_sec(f->rate_bps);
}

void PacketSimulator::audit_quiescent() const {
  sim::InvariantAuditor& auditor = sim_->auditor();
  if (!auditor.enabled()) return;
  const TimePoint now = sim_->now();
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    const PortState& p = ports_[i];
    auditor.check(p.queue.empty() && p.queued_bytes == 0, sim::AuditRule::kStuckQueue,
                  now, [&] {
                    std::ostringstream os;
                    os << "port " << i << " still holds " << p.queued_bytes
                       << " bytes after the event queue drained"
                       << (p.paused ? " (port is PFC-paused)" : "");
                    return os.str();
                  });
  }
  if (active_flows_ != 0) return;  // in-flight bytes make the ledger open-ended
  const std::int64_t accounted =
      audit_delivered_bytes_ + audit_dropped_bytes_ + audit_discarded_bytes_;
  auditor.check(audit_injected_bytes_ == accounted, sim::AuditRule::kConservation, now,
                [&] {
                  std::ostringstream os;
                  os << "packet ledger: injected " << audit_injected_bytes_
                     << " bytes != delivered " << audit_delivered_bytes_ << " + dropped "
                     << audit_dropped_bytes_ << " + discarded " << audit_discarded_bytes_
                     << " (recredited " << audit_recredited_bytes_ << ")";
                  return os.str();
                });
}

}  // namespace hpn::flowsim
