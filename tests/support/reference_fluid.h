// The hash-map fluid engine, kept verbatim as a test oracle.
//
// This is the `flowsim::FluidSimulator` that preceded the dense tick: flows
// live in an unordered_map<FlowId, ActiveFlow>, each tick walks that map
// twice (arrival sums, then goodput/DCQCN/completions) and reads every hop's
// capacity through topo_->link(). Its per-link arrival sums and completion
// order follow the map's iteration order, i.e. the standard library's bucket
// layout. Two test-only options expose that:
//   - `reserve_buckets` rehashes the empty map to a bucket count up front, so
//     the same flows iterate in a different order;
//   - `ascending` makes every per-flow walk visit flows in ascending FlowId
//     order (the dense engine's order), which is what the differential suite
//     compares against bit for bit.
// Everything else — arithmetic, tracer records, auditor checks, the
// self-disarming timer — is the engine as it was.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "flowsim/fluid.h"
#include "sim/simulator.h"
#include "topo/topology.h"

namespace hpn::flowsim::testing {

struct ReferenceFluidOptions {
  /// Rehash the flow map to at least this many buckets before any flow
  /// starts (0 = the library default).
  std::size_t reserve_buckets = 0;
  /// Walk flows in ascending FlowId order instead of map order.
  bool ascending = false;
};

class ReferenceFluidSimulator {
 public:
  using CompletionFn = std::function<void(FlowId)>;

  ReferenceFluidSimulator(const topo::Topology& topology, sim::Simulator& simulator,
                          FluidConfig config = {}, ReferenceFluidOptions options = {})
      : topo_{&topology}, sim_{&simulator}, config_{config}, options_{options} {
    HPN_CHECK(config_.tick > Duration::zero());
    HPN_CHECK(config_.ecn_kmax > config_.ecn_kmin);
    if (options_.reserve_buckets > 0) flows_.rehash(options_.reserve_buckets);
  }
  ReferenceFluidSimulator(const ReferenceFluidSimulator&) = delete;
  ReferenceFluidSimulator& operator=(const ReferenceFluidSimulator&) = delete;

  FlowId start_flow(std::vector<LinkId> path, Bandwidth cap,
                    DataSize size = DataSize::bits(std::numeric_limits<std::int64_t>::max()),
                    CompletionFn on_complete = nullptr) {
    HPN_CHECK_MSG(!path.empty(), "fluid flows need a network path");
    HPN_CHECK(cap > Bandwidth::zero());
    const FlowId id{next_id_++};
    ActiveFlow f;
    f.path = std::move(path);
    f.cap_bps = cap.as_bits_per_sec();
    f.rate_bps = f.cap_bps * config_.initial_rate;
    f.infinite = size.as_bits() == std::numeric_limits<std::int64_t>::max();
    f.remaining_bits = static_cast<double>(size.as_bits());
    f.on_complete = std::move(on_complete);
    for (const LinkId l : f.path) {
      HPN_CHECK(l.is_valid());
      if (slot_of_.size() <= l.index()) slot_of_.resize(l.index() + 1, kNoSlot);
      if (slot_of_[l.index()] != kNoSlot) continue;
      slot_of_[l.index()] = static_cast<std::uint32_t>(links_.size());
      links_.emplace_back();
      used_links_.insert(std::lower_bound(used_links_.begin(), used_links_.end(), l), l);
    }
    if (sim_->auditor().enabled() && !f.infinite) {
      audit_injected_bits_ += f.remaining_bits;
    }
    const double traced_bytes = f.infinite ? 0.0 : static_cast<double>(size.as_bytes());
    flows_.emplace(id, std::move(f));
    sim_->trace(metrics::TraceEventKind::kFlowStart, static_cast<std::uint32_t>(id.value()),
                metrics::kTraceNoId, traced_bytes, "fluid");
    ensure_ticking();
    return id;
  }

  bool stop_flow(FlowId id) {
    const auto it = flows_.find(id);
    if (it == flows_.end()) return false;
    if (sim_->auditor().enabled() && !it->second.infinite) {
      audit_aborted_bits_ += std::max(0.0, it->second.remaining_bits);
    }
    flows_.erase(it);
    return true;
  }

  [[nodiscard]] std::size_t active_flows() const { return flows_.size(); }

  [[nodiscard]] DataSize queue_of(LinkId link) const {
    const LinkState* st = find_state(link);
    return st == nullptr ? DataSize::zero()
                         : DataSize::bits(static_cast<std::int64_t>(st->queue_bits));
  }
  [[nodiscard]] Bandwidth arrival_rate(LinkId link) const {
    const LinkState* st = find_state(link);
    return st == nullptr ? Bandwidth::zero() : Bandwidth::bits_per_sec(st->arrival_bps);
  }
  [[nodiscard]] Bandwidth delivered_rate(LinkId link) const {
    const LinkState* st = find_state(link);
    return st == nullptr ? Bandwidth::zero() : Bandwidth::bits_per_sec(st->delivered_bps);
  }
  [[nodiscard]] Bandwidth flow_rate(FlowId id) const {
    const auto it = flows_.find(id);
    return it == flows_.end() ? Bandwidth::zero()
                              : Bandwidth::bits_per_sec(it->second.rate_bps);
  }
  [[nodiscard]] Bandwidth flow_goodput(FlowId id) const {
    const auto it = flows_.find(id);
    return it == flows_.end() ? Bandwidth::zero()
                              : Bandwidth::bits_per_sec(it->second.goodput_bps);
  }

  /// The order a tick walks the flows in (test hook).
  [[nodiscard]] std::vector<FlowId> iteration_order() const {
    std::vector<FlowId> order;
    order.reserve(flows_.size());
    for (const auto& [fid, f] : flows_) order.push_back(fid);
    if (options_.ascending) std::sort(order.begin(), order.end());
    return order;
  }
  [[nodiscard]] std::size_t bucket_count() const { return flows_.bucket_count(); }

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

  /// Calls fn(id, flow) for every active flow in the tick's walk order.
  template <typename Fn>
  void for_each_flow(Fn&& fn) {
    if (!options_.ascending) {
      for (auto& [fid, f] : flows_) fn(fid, f);
      return;
    }
    for (const FlowId fid : iteration_order()) fn(fid, flows_.at(fid));
  }

  void tick() {
    const double dt = config_.tick.as_seconds();

    // 1. Offered arrivals per link.
    for (LinkState& st : links_) st.arrival_bps = 0.0;
    for_each_flow([&](FlowId, ActiveFlow& f) {
      for (const LinkId l : f.path) state(l).arrival_bps += f.rate_bps;
    });

    // 2. Queues integrate (arrival - capacity).
    const metrics::Tracer& tracer = sim_->tracer();
    const bool sample =
        tracer.enabled() && config_.trace_sample_every > 0 &&
        tick_count_++ % static_cast<std::uint64_t>(config_.trace_sample_every) == 0;
    for (const LinkId lid : used_links_) {
      LinkState& st = state(lid);
      const double cap = topo_->link(lid).capacity.as_bits_per_sec();
      st.delivered_bps = std::min(st.arrival_bps + st.queue_bits / dt, cap);
      st.queue_bits = std::max(0.0, st.queue_bits + (st.arrival_bps - cap) * dt);
      if (sample && tracer.watching(lid)) {
        const auto link = static_cast<std::uint32_t>(lid.value());
        sim_->trace(metrics::TraceEventKind::kQueueDepth, link, metrics::kTraceNoId,
                    st.queue_bits / 8.0);
        sim_->trace(metrics::TraceEventKind::kLinkUtilization, link, metrics::kTraceNoId,
                    cap > 0.0 ? st.delivered_bps / cap : 0.0);
      }
    }

    // 3. Per-flow goodput, data accounting and DCQCN feedback.
    std::vector<std::pair<FlowId, CompletionFn>> done;
    for_each_flow([&](FlowId fid, ActiveFlow& f) {
      double scale = 1.0;
      double p_mark = 0.0;
      for (const LinkId l : f.path) {
        const LinkState& st = state(l);
        const double cap = topo_->link(l).capacity.as_bits_per_sec();
        if (st.arrival_bps > cap) scale = std::min(scale, cap / st.arrival_bps);
        p_mark = std::max(p_mark, mark_probability(st.queue_bits));
      }
      f.goodput_bps = f.rate_bps * scale;
      if (!f.infinite) {
        if (sim_->auditor().enabled()) {
          audit_delivered_bits_ +=
              std::min(f.goodput_bps * dt, std::max(0.0, f.remaining_bits));
        }
        f.remaining_bits -= f.goodput_bps * dt;
        if (f.remaining_bits <= 0.0) done.emplace_back(fid, std::move(f.on_complete));
      }
      // DCQCN fluid limit: MD on marks, AI toward the cap.
      f.rate_bps *= 1.0 - config_.md_factor * p_mark;
      f.rate_bps += config_.additive_increase * f.cap_bps;
      f.rate_bps = std::clamp(f.rate_bps, config_.min_rate_fraction * f.cap_bps, f.cap_bps);
    });

    for (auto& [fid, fn] : done) {
      flows_.erase(fid);
      sim_->trace(metrics::TraceEventKind::kFlowFinish,
                  static_cast<std::uint32_t>(fid.value()), metrics::kTraceNoId, 0.0,
                  "fluid");
      if (fn) fn(fid);
    }

    if (sim_->auditor().enabled()) audit_tick();
  }

  void audit_tick() {
    sim::InvariantAuditor& auditor = sim_->auditor();
    const TimePoint now = sim_->now();
    constexpr double kRelEps = 1e-6;

    audit_goodput_.assign(links_.size(), 0.0);
    double inflight_bits = 0.0;
    for_each_flow([&](FlowId fid, ActiveFlow& f) {
      if (!f.infinite) inflight_bits += std::max(0.0, f.remaining_bits);
      auditor.check(f.rate_bps <= f.cap_bps * (1.0 + kRelEps) + 1.0,
                    sim::AuditRule::kRateOverCapacity, now, [&, id = fid] {
                      std::ostringstream os;
                      os << "fluid flow " << id.value() << " rate " << f.rate_bps
                         << " bps exceeds its cap " << f.cap_bps << " bps";
                      return os.str();
                    });
      for (const LinkId l : f.path) audit_goodput_[slot_of_[l.index()]] += f.goodput_bps;
    });

    for (const LinkId lid : used_links_) {
      const std::uint32_t slot = slot_of_[lid.index()];
      const LinkState& st = links_[slot];
      const double cap = topo_->link(lid).capacity.as_bits_per_sec();
      auditor.check(st.queue_bits >= 0.0, sim::AuditRule::kNegativeQueue, now, [&] {
        std::ostringstream os;
        os << "fluid queue on link " << lid.value() << " is " << st.queue_bits << " bits";
        return os.str();
      });
      auditor.check(st.delivered_bps <= cap * (1.0 + kRelEps) + 1.0,
                    sim::AuditRule::kRateOverCapacity, now, [&] {
                      std::ostringstream os;
                      os << "fluid link " << lid.value() << " delivered " << st.delivered_bps
                         << " bps over capacity " << cap << " bps";
                      return os.str();
                    });
      const double goodput = audit_goodput_[slot];
      auditor.check(goodput <= cap * (1.0 + kRelEps) + 1.0,
                    sim::AuditRule::kRateOverCapacity, now, [&] {
                      std::ostringstream os;
                      os << "fluid link " << lid.value() << " carries goodput " << goodput
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

  [[nodiscard]] double mark_probability(double queue_bits) const {
    const double kmin = static_cast<double>(config_.ecn_kmin.as_bits());
    const double kmax = static_cast<double>(config_.ecn_kmax.as_bits());
    if (queue_bits <= kmin) return 0.0;
    if (queue_bits >= kmax) return config_.ecn_pmax;
    return config_.ecn_pmax * (queue_bits - kmin) / (kmax - kmin);
  }

  void ensure_ticking() {
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

  [[nodiscard]] LinkState& state(LinkId link) { return links_[slot_of_[link.index()]]; }
  [[nodiscard]] const LinkState* find_state(LinkId link) const {
    if (!link.is_valid() || link.index() >= slot_of_.size()) return nullptr;
    const std::uint32_t slot = slot_of_[link.index()];
    return slot == kNoSlot ? nullptr : &links_[slot];
  }

  const topo::Topology* topo_;
  sim::Simulator* sim_;
  FluidConfig config_;
  ReferenceFluidOptions options_;
  std::unordered_map<FlowId, ActiveFlow> flows_;
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  std::vector<std::uint32_t> slot_of_;
  std::vector<LinkState> links_;
  std::vector<LinkId> used_links_;
  std::vector<double> audit_goodput_;
  FlowId::underlying next_id_ = 1;
  std::unique_ptr<sim::PeriodicTimer> timer_;
  std::uint64_t tick_count_ = 0;

  double audit_injected_bits_ = 0.0;
  double audit_delivered_bits_ = 0.0;
  double audit_aborted_bits_ = 0.0;
};

}  // namespace hpn::flowsim::testing
