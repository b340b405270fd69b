#include "flowsim/fluid.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"

namespace hpn::flowsim {

FluidSimulator::FluidSimulator(const topo::Topology& topology, sim::Simulator& simulator,
                               FluidConfig config)
    : topo_{&topology}, sim_{&simulator}, config_{config} {
  HPN_CHECK(config_.tick > Duration::zero());
  HPN_CHECK(config_.ecn_kmax > config_.ecn_kmin);
}

FluidSimulator::~FluidSimulator() = default;

std::uint32_t FluidSimulator::touch(LinkId link) {
  if (slot_of_.size() <= link.index()) slot_of_.resize(link.index() + 1, kNoSlot);
  std::uint32_t& slot = slot_of_[link.index()];
  if (slot != kNoSlot) return slot;
  slot = static_cast<std::uint32_t>(links_.size());
  links_.push_back(LinkState{.cap_bps = topo_->link(link).capacity.as_bits_per_sec()});
  arrival_.push_back(0.0);
  feedback_.emplace_back();
  const auto pos = std::lower_bound(
      used_links_.begin(), used_links_.end(), link,
      [](const UsedLink& u, LinkId l) { return u.id < l; });
  used_links_.insert(pos, UsedLink{link, slot});
  return slot;
}

FlowId FluidSimulator::start_flow(std::vector<LinkId> path, Bandwidth cap, DataSize size,
                                  CompletionFn on_complete) {
  HPN_CHECK_MSG(!path.empty(), "fluid flows need a network path");
  HPN_CHECK(cap > Bandwidth::zero());
  HPN_CHECK(hops_.size() + path.size() <= std::numeric_limits<std::uint32_t>::max());
  // Check the whole path before touching any state, so a rejected flow
  // leaves no hops behind.
  for (const LinkId l : path) {
    HPN_CHECK_MSG(l.is_valid() && l.index() < topo_->link_count(),
                  "fluid flow path uses a link the topology lacks");
  }
  const FlowId id{next_id_++};
  Flow f;
  f.id = id;
  f.first_hop = static_cast<std::uint32_t>(hops_.size());
  f.hop_count = static_cast<std::uint32_t>(path.size());
  f.cap_bps = cap.as_bits_per_sec();
  f.rate_bps = f.cap_bps * config_.initial_rate;
  f.infinite = size.as_bits() == std::numeric_limits<std::int64_t>::max();
  f.remaining_bits = static_cast<double>(size.as_bits());
  for (const LinkId l : path) hops_.push_back(touch(l));
  if (sim_->auditor().enabled() && !f.infinite) {
    audit_injected_bits_ += f.remaining_bits;
  }
  const double traced_bytes =
      f.infinite ? 0.0 : static_cast<double>(size.as_bytes());
  // Ids only grow, so appending keeps flows_ in ascending id order.
  flows_.push_back(f);
  callbacks_.push_back(std::move(on_complete));
  sim_->trace(metrics::TraceEventKind::kFlowStart, static_cast<std::uint32_t>(id.value()),
              metrics::kTraceNoId, traced_bytes, "fluid");
  ensure_ticking();
  return id;
}

std::size_t FluidSimulator::find_flow(FlowId id) const {
  const auto it = std::lower_bound(flows_.begin(), flows_.end(), id,
                                   [](const Flow& f, FlowId x) { return f.id < x; });
  return it != flows_.end() && it->id == id ? static_cast<std::size_t>(it - flows_.begin())
                                            : flows_.size();
}

bool FluidSimulator::stop_flow(FlowId id) {
  const std::size_t i = find_flow(id);
  if (i == flows_.size()) return false;
  const Flow f = flows_[i];
  if (sim_->auditor().enabled() && !f.infinite) {
    audit_aborted_bits_ += std::max(0.0, f.remaining_bits);
  }
  const auto first = hops_.begin() + f.first_hop;
  hops_.erase(first, first + f.hop_count);
  for (std::size_t j = i + 1; j < flows_.size(); ++j) flows_[j].first_hop -= f.hop_count;
  flows_.erase(flows_.begin() + static_cast<std::ptrdiff_t>(i));
  callbacks_.erase(callbacks_.begin() + static_cast<std::ptrdiff_t>(i));
  return true;
}

std::uint32_t FluidSimulator::find_slot(LinkId link) const {
  if (!link.is_valid() || link.index() >= slot_of_.size()) return kNoSlot;
  return slot_of_[link.index()];
}

DataSize FluidSimulator::queue_of(LinkId link) const {
  const std::uint32_t slot = find_slot(link);
  return slot == kNoSlot ? DataSize::zero()
                         : DataSize::bits(static_cast<std::int64_t>(links_[slot].queue_bits));
}

Bandwidth FluidSimulator::arrival_rate(LinkId link) const {
  const std::uint32_t slot = find_slot(link);
  return slot == kNoSlot ? Bandwidth::zero() : Bandwidth::bits_per_sec(arrival_[slot]);
}

Bandwidth FluidSimulator::delivered_rate(LinkId link) const {
  const std::uint32_t slot = find_slot(link);
  return slot == kNoSlot ? Bandwidth::zero()
                         : Bandwidth::bits_per_sec(links_[slot].delivered_bps);
}

Bandwidth FluidSimulator::flow_rate(FlowId id) const {
  const std::size_t i = find_flow(id);
  return i == flows_.size() ? Bandwidth::zero() : Bandwidth::bits_per_sec(flows_[i].rate_bps);
}

Bandwidth FluidSimulator::flow_goodput(FlowId id) const {
  const std::size_t i = find_flow(id);
  return i == flows_.size() ? Bandwidth::zero()
                            : Bandwidth::bits_per_sec(flows_[i].goodput_bps);
}

double FluidSimulator::mark_probability(double queue_bits) const {
  const double kmin = static_cast<double>(config_.ecn_kmin.as_bits());
  const double kmax = static_cast<double>(config_.ecn_kmax.as_bits());
  if (queue_bits <= kmin) return 0.0;
  if (queue_bits >= kmax) return config_.ecn_pmax;
  return config_.ecn_pmax * (queue_bits - kmin) / (kmax - kmin);
}

void FluidSimulator::ensure_ticking() {
  if (timer_) return;
  timer_ = std::make_unique<sim::PeriodicTimer>(*sim_, config_.tick, [this] {
    tick();
    if (!flows_.empty()) return true;
    // Self-disarm when idle; restart on next flow. Destroying the timer
    // from inside its own callback is unsafe, so defer.
    sim_->schedule_now([this] {
      if (flows_.empty()) timer_.reset();
    });
    return false;
  });
}

void FluidSimulator::tick() {
  const double dt = config_.tick.as_seconds();
  const bool audit = sim_->auditor().enabled();

  // 1. Offered arrivals per link, summed in ascending FlowId order.
  std::fill(arrival_.begin(), arrival_.end(), 0.0);
  for (const Flow& f : flows_) {
    const std::uint32_t* hop = hops_.data() + f.first_hop;
    for (std::uint32_t k = 0; k < f.hop_count; ++k) arrival_[hop[k]] += f.rate_bps;
  }

  // 2. Queues integrate (arrival - capacity); each link's feedback is
  // computed once for every flow that crosses it.
  const metrics::Tracer& tracer = sim_->tracer();
  const bool sample =
      tracer.enabled() && config_.trace_sample_every > 0 &&
      tick_count_++ % static_cast<std::uint64_t>(config_.trace_sample_every) == 0;
  for (const UsedLink& u : used_links_) {
    LinkState& st = links_[u.slot];
    const double arrival = arrival_[u.slot];
    const double cap = st.cap_bps;
    // A queue is never negative, so an empty one drains exactly +0.0.
    const double offered = st.queue_bits > 0.0 ? arrival + st.queue_bits / dt : arrival;
    st.delivered_bps = std::min(offered, cap);
    st.queue_bits = std::max(0.0, st.queue_bits + (arrival - cap) * dt);
    feedback_[u.slot] = Feedback{arrival > cap ? cap / arrival : 1.0,
                                 mark_probability(st.queue_bits)};
    if (sample && tracer.watching(u.id)) {
      const auto link = static_cast<std::uint32_t>(u.id.value());
      sim_->trace(metrics::TraceEventKind::kQueueDepth, link, metrics::kTraceNoId,
                  st.queue_bits / 8.0);
      sim_->trace(metrics::TraceEventKind::kLinkUtilization, link, metrics::kTraceNoId,
                  cap > 0.0 ? st.delivered_bps / cap : 0.0);
    }
  }

  // 3. Per-flow goodput, data accounting and DCQCN feedback. Finished flows
  // leave the table here; the survivors and their hops slide down over them.
  std::vector<std::pair<FlowId, CompletionFn>> done;
  std::size_t kept = 0;
  std::uint32_t kept_hops = 0;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    Flow& f = flows_[i];
    double scale = 1.0;
    double p_mark = 0.0;
    const std::uint32_t* hop = hops_.data() + f.first_hop;
    for (std::uint32_t k = 0; k < f.hop_count; ++k) {
      const Feedback& fb = feedback_[hop[k]];
      scale = std::min(scale, fb.scale);
      p_mark = std::max(p_mark, fb.p_mark);
    }
    f.goodput_bps = f.rate_bps * scale;
    if (!f.infinite) {
      if (audit) {
        audit_delivered_bits_ +=
            std::min(f.goodput_bps * dt, std::max(0.0, f.remaining_bits));
      }
      f.remaining_bits -= f.goodput_bps * dt;
      if (f.remaining_bits <= 0.0) {
        done.emplace_back(f.id, std::move(callbacks_[i]));
        continue;
      }
    }
    // DCQCN fluid limit: MD on marks, AI toward the cap.
    f.rate_bps *= 1.0 - config_.md_factor * p_mark;
    f.rate_bps += config_.additive_increase * f.cap_bps;
    f.rate_bps = std::clamp(f.rate_bps, config_.min_rate_fraction * f.cap_bps, f.cap_bps);
    if (kept != i) {
      std::copy_n(hops_.begin() + f.first_hop, f.hop_count, hops_.begin() + kept_hops);
      f.first_hop = kept_hops;
      flows_[kept] = f;
      callbacks_[kept] = std::move(callbacks_[i]);
    }
    kept_hops += f.hop_count;
    ++kept;
  }
  flows_.resize(kept);
  callbacks_.resize(kept);
  hops_.resize(kept_hops);

  for (auto& [fid, fn] : done) {
    sim_->trace(metrics::TraceEventKind::kFlowFinish,
                static_cast<std::uint32_t>(fid.value()), metrics::kTraceNoId, 0.0,
                "fluid");
    if (fn) fn(fid);
  }

  if (sim_->auditor().enabled()) audit_tick();
}

void FluidSimulator::audit_tick() {
  sim::InvariantAuditor& auditor = sim_->auditor();
  const TimePoint now = sim_->now();
  constexpr double kRelEps = 1e-6;

  audit_goodput_.assign(links_.size(), 0.0);
  double inflight_bits = 0.0;
  for (const Flow& f : flows_) {
    if (!f.infinite) inflight_bits += std::max(0.0, f.remaining_bits);
    auditor.check(f.rate_bps <= f.cap_bps * (1.0 + kRelEps) + 1.0,
                  sim::AuditRule::kRateOverCapacity, now, [&] {
                    std::ostringstream os;
                    os << "fluid flow " << f.id.value() << " rate " << f.rate_bps
                       << " bps exceeds its cap " << f.cap_bps << " bps";
                    return os.str();
                  });
    const std::uint32_t* hop = hops_.data() + f.first_hop;
    for (std::uint32_t k = 0; k < f.hop_count; ++k) audit_goodput_[hop[k]] += f.goodput_bps;
  }

  for (const UsedLink& u : used_links_) {
    const LinkState& st = links_[u.slot];
    const double cap = st.cap_bps;
    auditor.check(st.queue_bits >= 0.0, sim::AuditRule::kNegativeQueue, now, [&] {
      std::ostringstream os;
      os << "fluid queue on link " << u.id.value() << " is " << st.queue_bits << " bits";
      return os.str();
    });
    auditor.check(st.delivered_bps <= cap * (1.0 + kRelEps) + 1.0,
                  sim::AuditRule::kRateOverCapacity, now, [&] {
                    std::ostringstream os;
                    os << "fluid link " << u.id.value() << " delivered " << st.delivered_bps
                       << " bps over capacity " << cap << " bps";
                    return os.str();
                  });
    const double goodput = audit_goodput_[u.slot];
    auditor.check(goodput <= cap * (1.0 + kRelEps) + 1.0,
                  sim::AuditRule::kRateOverCapacity, now, [&] {
                    std::ostringstream os;
                    os << "fluid link " << u.id.value() << " carries goodput " << goodput
                       << " bps over capacity " << cap << " bps";
                    return os.str();
                  });
  }

  const double accounted = audit_delivered_bits_ + audit_aborted_bits_ + inflight_bits;
  const double scale = std::max(1.0, audit_injected_bits_);
  auditor.check(std::abs(audit_injected_bits_ - accounted) <= scale * 1e-9 + 1.0,
                sim::AuditRule::kConservation, now, [&] {
                  std::ostringstream os;
                  os << "fluid ledger: injected " << audit_injected_bits_
                     << " bits != delivered " << audit_delivered_bits_ << " + aborted "
                     << audit_aborted_bits_ << " + in-flight " << inflight_bits;
                  return os.str();
                });
}

}  // namespace hpn::flowsim
