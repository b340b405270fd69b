#include "flowsim/session.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"

namespace hpn::flowsim {

namespace {
constexpr double kBitEps = 1.0;  // flows within one bit of done are done
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Bits a flow of `size` has served with `remaining` to go, clamped to
/// [0, size] and truncated to whole bits.
std::int64_t served_bits(DataSize size, double remaining) {
  const auto total = static_cast<double>(size.as_bits());
  return static_cast<std::int64_t>(std::clamp(total - remaining, 0.0, total));
}
}  // namespace

FlowSession::FlowSession(const topo::Topology& topology, sim::Simulator& simulator)
    : topo_{&topology}, sim_{&simulator}, solver_{topology}, last_settle_{simulator.now()} {}

FlowId FlowSession::start_flow(const std::vector<LinkId>& path, DataSize size,
                               Bandwidth cap, CompletionFn on_complete) {
  return start_flow(solver_.paths().intern(path), size, cap, std::move(on_complete));
}

FlowId FlowSession::start_flow(PathId path, DataSize size, Bandwidth cap,
                               CompletionFn on_complete) {
  HPN_CHECK_MSG(cap > Bandwidth::zero(), "flow needs a positive source cap");
  settle_to_now();
  const FlowId id{next_id_++};
  const Handle h = solver_.add_flow(path, cap.as_bits_per_sec());
  if (h >= slots_.size()) {
    slots_.resize(h + 1);
    heap_pos_.resize(h + 1, kNone);
  }
  Slot& s = slots_[h];
  s.id = id;
  s.stalled = false;
  s.started = sim_->now();
  s.size = size;
  s.on_complete = std::move(on_complete);
  const auto bits = static_cast<double>(size.as_bits());
  attach(h, bits);
  handle_of_.insert(id, h);
  if (sim_->auditor().enabled()) {
    audit_injected_bits_ += bits;
    if (h >= audit_shadow_.size()) audit_shadow_.resize(h + 1, 0.0);
    audit_shadow_[h] = bits;
  }
  sim_->trace(metrics::TraceEventKind::kFlowStart, static_cast<std::uint32_t>(id.value()),
              metrics::kTraceNoId, static_cast<double>(size.as_bytes()));
  schedule_recompute();
  return id;
}

bool FlowSession::abort_flow(FlowId id) {
  settle_to_now();
  const Handle h = handle_of_.find(id);
  if (h == kNone) return false;
  Slot& s = slots_[h];
  const double rem = remaining(h);
  sim_->trace(metrics::TraceEventKind::kFlowAbort, static_cast<std::uint32_t>(id.value()),
              metrics::kTraceNoId, rem);
  if (sim_->auditor().enabled()) audit_aborted_bits_ += audit_shadow_[h];
  delivered_bits_ += served_bits(s.size, rem);
  detach(h);
  solver_.remove_flow(h);
  s.id = FlowId{0};
  s.on_complete = nullptr;
  handle_of_.erase(id);
  schedule_recompute();
  return true;
}

bool FlowSession::reroute_flow(FlowId id, const std::vector<LinkId>& new_path) {
  return reroute_flow(id, solver_.paths().intern(new_path));
}

bool FlowSession::reroute_flow(FlowId id, PathId new_path) {
  const Handle h = handle_of_.find(id);
  if (h == kNone) return false;
  settle_to_now();
  if (solver_.path_id(h) == new_path) {
    solver_.set_path(h, new_path);  // same path; re-rates its component
  } else {
    // Settle the flow and restart its clock on the new path.
    const double rem = remaining(h);
    detach(h);
    solver_.set_path(h, new_path);
    attach(h, rem);
  }
  const auto hops = static_cast<double>(solver_.paths().hops(new_path));
  sim_->trace(metrics::TraceEventKind::kFlowReroute, static_cast<std::uint32_t>(id.value()),
              metrics::kTraceNoId, hops);
  schedule_recompute();
  return true;
}

std::optional<Bandwidth> FlowSession::rate_of(FlowId id) const {
  const Handle h = handle_of_.find(id);
  if (h == kNone) return std::nullopt;
  return Bandwidth::bits_per_sec(solver_.rate(h));
}

std::optional<DataSize> FlowSession::remaining_of(FlowId id) const {
  const Handle h = handle_of_.find(id);
  if (h == kNone) return std::nullopt;
  return DataSize::bits(static_cast<std::int64_t>(remaining(h)));
}

Bandwidth FlowSession::throughput_on(LinkId link) const {
  return Bandwidth::bits_per_sec(solver_.throughput_on(link));
}

DataSize FlowSession::delivered_total() const {
  std::int64_t bits = delivered_bits_;
  for (Handle h = 0; h < slots_.size(); ++h) {
    if (slots_[h].id.value() != 0) bits += served_bits(slots_[h].size, remaining(h));
  }
  return DataSize::bits(bits);
}

double FlowSession::remaining(Handle h) const {
  const Slot& s = slots_[h];
  return std::max(0.0, s.bits - clock_at(s, sim_->now()));
}

// ---- FlowId index -----------------------------------------------------------

std::size_t FlowSession::IdIndex::home(FlowId::underlying id) const {
  return static_cast<std::size_t>(id * 0x9E3779B97F4A7C15ULL) & (table_.size() - 1);
}

FlowSession::Handle FlowSession::IdIndex::find(FlowId id) const {
  if (table_.empty() || id.value() == 0) return kNone;
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = home(id.value());; i = (i + 1) & mask) {
    if (table_[i].id == id.value()) return table_[i].h;
    if (table_[i].id == 0) return kNone;
  }
}

void FlowSession::IdIndex::insert(FlowId id, Handle h) {
  if (2 * (size_ + 1) > table_.size()) {
    // Keep the load at most one half; rehash into twice the space.
    std::vector<Entry> old(std::max<std::size_t>(16, 2 * table_.size()));
    old.swap(table_);
    const std::size_t mask = table_.size() - 1;
    for (const Entry& e : old) {
      if (e.id == 0) continue;
      std::size_t i = home(e.id);
      while (table_[i].id != 0) i = (i + 1) & mask;
      table_[i] = e;
    }
  }
  const std::size_t mask = table_.size() - 1;
  std::size_t i = home(id.value());
  while (table_[i].id != 0) i = (i + 1) & mask;
  table_[i] = Entry{id.value(), h};
  ++size_;
}

void FlowSession::IdIndex::erase(FlowId id) {
  const std::size_t mask = table_.size() - 1;
  std::size_t i = home(id.value());
  while (table_[i].id != id.value()) i = (i + 1) & mask;
  // Backward shift: pull each later entry of the probe run into the hole
  // unless its home lies cyclically in (hole, entry].
  for (std::size_t j = (i + 1) & mask; table_[j].id != 0; j = (j + 1) & mask) {
    const std::size_t k = home(table_[j].id);
    if (((j - k) & mask) >= ((j - i) & mask)) {
      table_[i] = table_[j];
      i = j;
    }
  }
  table_[i] = Entry{};
  --size_;
}

// ---- Flow clocks and the completion heap ------------------------------------

void FlowSession::attach(Handle h, double bits) {
  Slot& s = slots_[h];
  s.bits = bits;
  s.clock = 0.0;
  s.rate = solver_.rate(h);  // a new network flow rates 0 until resolved
  s.at = sim_->now();
  if (solver_.paths().hops(solver_.path_id(h)) == 0) touched_local_.push_back(h);
  rekey(h);
}

void FlowSession::detach(Handle h) {
  const std::uint32_t pos = heap_pos_[h];
  const HeapEntry moved = heap_.back();
  heap_.pop_back();
  if (moved.h != h) {
    heap_[pos] = moved;
    heap_pos_[moved.h] = pos;
    heap_sift_up(pos);
    if (heap_pos_[moved.h] == pos) heap_sift_down(pos);
  }
  ++stats_.heap_updates;
  heap_pos_[h] = kNone;
}

void FlowSession::rerate(Handle h, double rate) {
  Slot& s = slots_[h];
  // A zero-rate flow is stalled on a down link; it holds position until
  // reroute_flow/refresh gives it a live path again.
  const bool stall = rate <= 0.0;
  // Same rate, same stall state: the clock and heap key still hold.
  if (rate == s.rate && stall == s.stalled) return;
  const TimePoint now = sim_->now();
  s.clock = clock_at(s, now);
  s.at = now;
  s.rate = rate;
  ++stats_.classes_rerated;
  if (stall != s.stalled) {
    s.stalled = stall;
    stall_events_.push_back({s.id, stall, stall ? std::max(0.0, s.bits - s.clock) : 0.0});
  }
  rekey(h);
}

void FlowSession::rekey(Handle h) {
  Slot& s = slots_[h];
  const double rem = s.bits - s.clock;
  double key;
  if (s.rate > 0.0) {
    key = s.at.as_seconds() + rem / s.rate;
  } else {
    key = rem <= kBitEps ? s.at.as_seconds() : kInf;
  }
  ++stats_.heap_updates;
  const std::uint32_t pos = heap_pos_[h];
  if (pos == kNone) {
    heap_.push_back({key, s.id.value(), h});
    heap_sift_up(static_cast<std::uint32_t>(heap_.size() - 1));
  } else {
    heap_[pos].key = key;
    heap_sift_up(pos);
    if (heap_pos_[h] == pos) heap_sift_down(pos);
  }
}

// The completion heap is 4-ary: a drain pops the root and sifts its
// replacement down, and four 16-byte children share one cache line.
void FlowSession::heap_sift_up(std::uint32_t i) {
  const HeapEntry e = heap_[i];
  while (i > 0) {
    const std::uint32_t parent = (i - 1) / 4;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i].h] = i;
    i = parent;
  }
  heap_[i] = e;
  heap_pos_[e.h] = i;
}

void FlowSession::heap_sift_down(std::uint32_t i) {
  const HeapEntry e = heap_[i];
  const auto n = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    const std::uint32_t first = 4 * i + 1;
    if (first >= n) break;
    std::uint32_t child = first;
    const std::uint32_t last = std::min(first + 4, n);
    for (std::uint32_t k = first + 1; k < last; ++k) {
      if (before(heap_[k], heap_[child])) child = k;
    }
    if (!before(heap_[child], e)) break;
    heap_[i] = heap_[child];
    heap_pos_[heap_[i].h] = i;
    i = child;
  }
  heap_[i] = e;
  heap_pos_[e.h] = i;
}

// ---- Recompute -------------------------------------------------------------

void FlowSession::settle_to_now() {
  const TimePoint now = sim_->now();
  const double dt = (now - last_settle_).as_seconds();
  last_settle_ = now;
  if (!sim_->auditor().enabled()) return;
  if (audit_shadow_.size() < slots_.size()) audit_shadow_.resize(slots_.size(), 0.0);
  if (dt <= 0.0) return;
  for (Handle h = 0; h < slots_.size(); ++h) {
    const Slot& s = slots_[h];
    if (s.id.value() == 0) continue;
    const double moved = s.rate * dt;
    double& shadow = audit_shadow_[h];
    audit_delivered_bits_ += std::min(moved, shadow);
    shadow = std::max(0.0, shadow - moved);
  }
}

void FlowSession::schedule_recompute() {
  if (pending_recompute_ != sim::kInvalidEvent) return;  // batch same-instant changes
  pending_recompute_ = sim_->schedule_now([this] {
    pending_recompute_ = sim::kInvalidEvent;
    recompute_and_reschedule();
  });
}

void FlowSession::recompute_and_reschedule() {
  ++stats_.recomputes;
  settle_to_now();
  const TimePoint now = sim_->now();
  const bool audit = sim_->auditor().enabled();

  // Drain everything within a bit of done (incl. zero-size flows). The heap
  // orders flows by the instant they drain, so the sweep stops at the first
  // flow that still owes more than a bit.
  done_.clear();
  while (!heap_.empty()) {
    const Handle h = heap_.front().h;
    const Slot& s = slots_[h];
    if (s.bits - clock_at(s, now) > kBitEps) break;
    detach(h);
    done_.push_back(h);
  }
  // Heap ties already pop in FlowId order, so only flows that drain at
  // different keys in one recompute can arrive out of it.
  const auto by_id = [this](Handle a, Handle b) {
    return slots_[a].id.value() < slots_[b].id.value();
  };
  if (!std::is_sorted(done_.begin(), done_.end(), by_id)) {
    std::sort(done_.begin(), done_.end(), by_id);
  }
  std::vector<std::pair<FlowId, CompletionFn>> fire;
  fire.reserve(done_.size());
  for (const Handle h : done_) {
    Slot& s = slots_[h];
    // Sub-bit residue counts as delivered so the ledger closes exactly.
    if (audit) audit_delivered_bits_ += audit_shadow_[h];
    sim_->trace(metrics::TraceEventKind::kFlowFinish,
                static_cast<std::uint32_t>(s.id.value()), metrics::kTraceNoId,
                (now - s.started).as_seconds());
    delivered_bits_ += s.size.as_bits();
    handle_of_.erase(s.id);
    fire.emplace_back(s.id, std::move(s.on_complete));
    s.id = FlowId{0};
    s.on_complete = nullptr;
    solver_.remove_flow(h);
  }
  stats_.completions += done_.size();

  // Re-rate whatever the batched changes touched; unaffected flows keep
  // their rate, clock and heap key and are not revisited.
  solver_.resolve();
  for (const Handle h : solver_.rerated()) rerate(h, solver_.rate(h));
  if (!touched_local_.empty()) {
    // Host-local flows never reach the solver; their rate is fixed at the
    // cap, but a new one still needs its stall state settled.
    std::sort(touched_local_.begin(), touched_local_.end());
    touched_local_.erase(std::unique(touched_local_.begin(), touched_local_.end()),
                         touched_local_.end());
    for (const Handle h : touched_local_) {
      const Slot& s = slots_[h];
      if (s.id.value() != 0 && solver_.paths().hops(solver_.path_id(h)) == 0) {
        rerate(h, s.rate);
      }
    }
    touched_local_.clear();
  }
  if (!stall_events_.empty()) {
    std::sort(stall_events_.begin(), stall_events_.end(),
              [](const StallEvent& a, const StallEvent& b) {
                return a.id.value() < b.id.value();
              });
    for (const StallEvent& e : stall_events_) {
      if (e.stall) {
        sim_->trace(metrics::TraceEventKind::kFlowStall,
                    static_cast<std::uint32_t>(e.id.value()), metrics::kTraceNoId, e.bits);
      } else {
        sim_->trace(metrics::TraceEventKind::kFlowResume,
                    static_cast<std::uint32_t>(e.id.value()));
      }
    }
    stall_events_.clear();
  }

  reschedule_completion();

  if (audit) audit_allocation();

  // Completion callbacks run after rates settle; they may start new flows,
  // which batches into a fresh recompute at this same instant.
  for (auto& [id, fn] : fire) {
    if (fn) fn(id);
  }
}

void FlowSession::reschedule_completion() {
  const Handle top = heap_.empty() ? kNone : heap_.front().h;
  const double key = heap_.empty() ? kInf : heap_.front().key;
  if (pending_completion_ != sim::kInvalidEvent) {
    if (top == scheduled_ && key == scheduled_key_) return;  // minimum unchanged
    sim_->cancel(pending_completion_);
    pending_completion_ = sim::kInvalidEvent;
  }
  if (!std::isfinite(key)) return;
  const Slot& s = slots_[top];
  const double rem = std::max(0.0, s.bits - clock_at(s, sim_->now()));
  // A finite key at rate zero is a stalled flow already within a bit of
  // done: drain it at the next instant.
  const double finish_s = s.rate > 0.0 ? rem / s.rate : 0.0;
  // Round up so the flow has fully drained when the event fires.
  const Duration d =
      Duration::nanos(static_cast<std::int64_t>(std::ceil(finish_s * 1e9)) + 1);
  scheduled_ = top;
  scheduled_key_ = key;
  pending_completion_ = sim_->schedule_after(d, [this] {
    pending_completion_ = sim::kInvalidEvent;
    recompute_and_reschedule();
  });
}

void FlowSession::audit_allocation() {
  sim::InvariantAuditor& auditor = sim_->auditor();
  const TimePoint now = sim_->now();
  const double now_s = now.as_seconds();
  // Tolerances are relative: rates are doubles accumulated through the
  // incremental solver, so allow a part-per-million of slack.
  constexpr double kRelEps = 1e-6;

  double inflight_bits = 0.0;
  double brute_min = kInf;
  audit_load_.assign(topo_->link_count(), 0.0);
  for (Handle h = 0; h < slots_.size(); ++h) {
    const Slot& s = slots_[h];
    if (s.id.value() == 0) continue;
    const FlowId fid = s.id;
    const double rate = solver_.rate(h);
    const double shadow = audit_shadow_[h];
    inflight_bits += shadow;
    const double cap = solver_.cap(h);
    auditor.check(rate <= cap * (1.0 + kRelEps) + 1.0, sim::AuditRule::kRateOverCapacity,
                  now, [&] {
                    std::ostringstream os;
                    os << "flow " << fid.value() << " rate " << rate
                       << " bps exceeds its source cap " << cap << " bps";
                    return os.str();
                  });
    bool path_up = true;
    for (const LinkId link : solver_.path(h)) {
      audit_load_[link.index()] += rate;
      if (!topo_->is_up(link)) path_up = false;
    }
    auditor.check(rate <= 0.0 || path_up, sim::AuditRule::kDownLinkForwarding, now, [&] {
      std::ostringstream os;
      os << "flow " << fid.value() << " allocated " << rate
         << " bps over a path with a down link";
      return os.str();
    });

    // The lazy clocks must reproduce eager per-event settling.
    const double lazy = remaining(h);
    const double size_bits = static_cast<double>(s.size.as_bits());
    auditor.check(std::abs(lazy - shadow) <= size_bits * 1e-9 + 1.0,
                  sim::AuditRule::kLazySettle, now, [&] {
                    std::ostringstream os;
                    os << "flow " << fid.value() << " lazily has " << lazy
                       << " bits left, eager settling says " << shadow;
                    return os.str();
                  });

    // Brute-force projected finish, the same convention as the heap keys.
    const double rem = s.bits - clock_at(s, now);
    const double finish = s.rate > 0.0       ? now_s + rem / s.rate
                          : rem <= kBitEps   ? s.at.as_seconds()
                                             : kInf;
    brute_min = std::min(brute_min, finish);
  }

  const double heap_min = heap_.empty() ? kInf : heap_.front().key;
  const bool heap_ok =
      heap_min == brute_min ||
      std::abs(heap_min - brute_min) <= 1e-9 * std::max(0.0, brute_min - now_s) + 1e-9;
  auditor.check(heap_ok, sim::AuditRule::kCompletionHeap, now, [&] {
    std::ostringstream os;
    os << "completion heap minimum " << heap_min << " s != brute-force minimum "
       << brute_min << " s over " << handle_of_.size() << " flows";
    return os.str();
  });

  // Ascending LinkId, so overload messages come out in one defined order.
  for (std::size_t l = 0; l < audit_load_.size(); ++l) {
    const LinkId link{static_cast<LinkId::underlying>(l)};
    const double load = audit_load_[l];
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

}  // namespace hpn::flowsim
