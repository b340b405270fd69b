#include "flowsim/session.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>

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

FlowSession::FlowSession(const topo::Topology& topology, sim::Simulator& simulator,
                         Aggregation aggregation)
    : topo_{&topology},
      sim_{&simulator},
      aggregation_{aggregation},
      solver_{topology, aggregation},
      last_settle_{simulator.now()} {}

FlowSession::Snapshot FlowSession::snapshot() const {
  HPN_CHECK_MSG(handle_of_.empty(), "session snapshot requires no active flows");
  HPN_CHECK_MSG(pending_recompute_ == sim::kInvalidEvent &&
                    pending_completion_ == sim::kInvalidEvent,
                "session snapshot requires no pending events");
  Snapshot s;
  s.next_id = next_id_;
  s.last_settle = last_settle_;
  s.delivered = DataSize::bits(delivered_bits_);
  s.audit_injected_bits = audit_injected_bits_;
  s.audit_delivered_bits = audit_delivered_bits_;
  s.audit_aborted_bits = audit_aborted_bits_;
  return s;
}

void FlowSession::restore(const Snapshot& snap) {
  HPN_CHECK_MSG(handle_of_.empty(), "session restore requires no active flows");
  HPN_CHECK_MSG(pending_recompute_ == sim::kInvalidEvent &&
                    pending_completion_ == sim::kInvalidEvent,
                "session restore requires no pending events");
  next_id_ = snap.next_id;
  last_settle_ = snap.last_settle;
  delivered_bits_ = snap.delivered.as_bits();
  audit_injected_bits_ = snap.audit_injected_bits;
  audit_delivered_bits_ = snap.audit_delivered_bits;
  audit_aborted_bits_ = snap.audit_aborted_bits;
  trace_.clear();
  // A fresh solver, not a rollback: with zero active flows the old one holds
  // only interned paths and counters, and rebuilding is the one way its
  // next run re-derives identical PathIds/handles/stats from identical
  // inputs (see the PathId invalidation note on Snapshot). The session's
  // own tables hold only free entries now; they restart with it, and give
  // their memory back, so a quiescent session kept for re-runs (serve's
  // cached bases) does not pin its peak-sized tables.
  solver_ = IncrementalMaxMin{*topo_, aggregation_};
  slots_ = {};
  handle_of_ = {};
  classes_ = {};
  free_classes_ = {};
  class_of_group_ = {};
  heap_ = {};
  touched_local_ = {};
  done_ = {};
  audit_shadow_ = {};
  scheduled_class_ = kNone;
  stats_ = Stats{};
}

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
  if (h >= slots_.size()) slots_.resize(h + 1);
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

void FlowSession::record_trace(Handle h, bool aborted) {
  if (!tracing_) return;
  const Slot& s = slots_[h];
  FlowRecord rec;
  rec.id = s.id;
  rec.started = s.started;
  rec.finished = sim_->now();
  rec.size = s.size;
  rec.path = solver_.path_id(h);
  rec.hops = static_cast<std::uint32_t>(solver_.paths().hops(rec.path));
  rec.aborted = aborted;
  trace_.push_back(rec);
}

void FlowSession::write_trace_csv(std::ostream& os) const {
  os << "id,start_s,finish_s,fct_s,bytes,hops,aborted\n";
  for (const FlowRecord& r : trace_) {
    os << r.id.value() << ',' << r.started.as_seconds() << ',' << r.finished.as_seconds()
       << ',' << r.fct().as_seconds() << ',' << static_cast<std::int64_t>(r.size.as_bytes())
       << ',' << r.hops << ',' << (r.aborted ? 1 : 0) << "\n";
  }
}

bool FlowSession::abort_flow(FlowId id) {
  settle_to_now();
  const Handle h = handle_of_.find(id);
  if (h == kNone) return false;
  Slot& s = slots_[h];
  const double rem = remaining(h);
  record_trace(h, /*aborted=*/true);
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
    solver_.set_path(h, new_path);  // same class; re-rates its component
  } else {
    // Settle this one member and re-tag it into its new class.
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
  return std::max(0.0, s.tag - clock_at(classes_[s.cls], sim_->now()));
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

// ---- Classes and their member heaps ----------------------------------------

void FlowSession::attach(Handle h, double bits) {
  const TimePoint now = sim_->now();
  const std::uint32_t group = solver_.class_of(h);
  std::uint32_t cls = group < class_of_group_.size() ? class_of_group_[group] : kNone;
  if (cls == kNone) {
    if (!free_classes_.empty()) {
      cls = free_classes_.back();
      free_classes_.pop_back();
    } else {
      cls = static_cast<std::uint32_t>(classes_.size());
      classes_.resize(cls + 1);
    }
    Class& c = classes_[cls];
    c.group = group;
    c.heap_pos = kNone;
    c.stalled = 0;
    c.clock = 0.0;
    c.rate = solver_.rate(h);  // a fresh solver class rates 0 until resolved
    c.at = now;
    c.members.clear();
    if (group == IncrementalMaxMin::kNoClass) {
      touched_local_.push_back(cls);
    } else {
      if (group >= class_of_group_.size()) class_of_group_.resize(group + 1, kNone);
      class_of_group_[group] = cls;
    }
  }
  Class& c = classes_[cls];
  c.clock = clock_at(c, now);
  c.at = now;
  Slot& s = slots_[h];
  s.cls = cls;
  s.tag = c.clock + bits;
  if (s.stalled) ++c.stalled;
  s.pos = c.members.size();
  c.members.push_back(h);
  member_sift_up(c, s.pos);
  rekey(cls);
}

void FlowSession::detach(Handle h) {
  Slot& s = slots_[h];
  const std::uint32_t cls = s.cls;
  Class& c = classes_[cls];
  const Handle last = c.members.back();
  c.members.pop_back();
  if (last != h) {
    const std::uint32_t pos = s.pos;
    c.members[pos] = last;
    slots_[last].pos = pos;
    member_sift_up(c, pos);
    if (slots_[last].pos == pos) member_sift_down(c, pos);
  }
  if (s.stalled) --c.stalled;
  s.cls = kNone;
  if (c.members.empty()) {
    free_class(cls);
  } else {
    rekey(cls);
  }
}

void FlowSession::free_class(std::uint32_t cls) {
  Class& c = classes_[cls];
  const std::uint32_t pos = c.heap_pos;
  const HeapEntry moved = heap_.back();
  heap_.pop_back();
  if (moved.cls != cls) {
    heap_[pos] = moved;
    classes_[moved.cls].heap_pos = pos;
    heap_sift_up(pos);
    if (classes_[moved.cls].heap_pos == pos) heap_sift_down(pos);
  }
  ++stats_.heap_updates;
  c.heap_pos = kNone;
  if (c.group != IncrementalMaxMin::kNoClass) class_of_group_[c.group] = kNone;
  free_classes_.push_back(cls);
}

void FlowSession::rerate(std::uint32_t cls, double rate) {
  Class& c = classes_[cls];
  // Zero-rate members are stalled on a down link; they hold position until
  // reroute_flow/refresh gives them a live path again. Members are visited
  // only when some of them change state.
  const bool stall = rate <= 0.0;
  const bool stall_changes = stall ? c.stalled < c.members.size() : c.stalled > 0;
  // Same rate, same stall state: the clock and heap key still hold.
  if (rate == c.rate && !stall_changes) return;
  const TimePoint now = sim_->now();
  c.clock = clock_at(c, now);
  c.at = now;
  c.rate = rate;
  ++stats_.classes_rerated;
  if (stall_changes) {
    for (std::uint32_t i = 0; i < c.members.size(); ++i) {
      Slot& s = slots_[c.members[i]];
      if (s.stalled == stall) continue;
      s.stalled = stall;
      stall_events_.push_back({s.id, stall, stall ? std::max(0.0, s.tag - c.clock) : 0.0});
    }
    c.stalled = stall ? c.members.size() : 0;
  }
  rekey(cls);
}

void FlowSession::rekey(std::uint32_t cls) {
  Class& c = classes_[cls];
  const double rem = slots_[c.members.front()].tag - c.clock;
  double key;
  if (c.rate > 0.0) {
    key = c.at.as_seconds() + rem / c.rate;
  } else {
    key = rem <= kBitEps ? c.at.as_seconds() : kInf;
  }
  ++stats_.heap_updates;
  if (c.heap_pos == kNone) {
    c.heap_pos = static_cast<std::uint32_t>(heap_.size());
    heap_.push_back({key, cls});
    heap_sift_up(c.heap_pos);
  } else {
    heap_[c.heap_pos].key = key;
    const std::uint32_t pos = c.heap_pos;
    heap_sift_up(pos);
    if (c.heap_pos == pos) heap_sift_down(pos);
  }
}

bool FlowSession::member_less(Handle a, Handle b) const {
  const Slot& x = slots_[a];
  const Slot& y = slots_[b];
  if (x.tag != y.tag) return x.tag < y.tag;
  return x.id.value() < y.id.value();
}

void FlowSession::member_sift_up(Class& c, std::uint32_t i) {
  const Handle h = c.members[i];
  while (i > 0) {
    const std::uint32_t parent = (i - 1) / 2;
    if (!member_less(h, c.members[parent])) break;
    c.members[i] = c.members[parent];
    slots_[c.members[i]].pos = i;
    i = parent;
  }
  c.members[i] = h;
  slots_[h].pos = i;
}

void FlowSession::member_sift_down(Class& c, std::uint32_t i) {
  const Handle h = c.members[i];
  const std::uint32_t n = c.members.size();
  for (;;) {
    std::uint32_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && member_less(c.members[child + 1], c.members[child])) ++child;
    if (!member_less(c.members[child], h)) break;
    c.members[i] = c.members[child];
    slots_[c.members[i]].pos = i;
    i = child;
  }
  c.members[i] = h;
  slots_[h].pos = i;
}

// ---- The completion heap over classes --------------------------------------

// The completion heap is 4-ary: a drain pops the root and sifts its
// replacement down, and four 16-byte children share one cache line.
void FlowSession::heap_sift_up(std::uint32_t i) {
  const HeapEntry e = heap_[i];
  while (i > 0) {
    const std::uint32_t parent = (i - 1) / 4;
    if (!(e < heap_[parent])) break;
    heap_[i] = heap_[parent];
    classes_[heap_[i].cls].heap_pos = i;
    i = parent;
  }
  heap_[i] = e;
  classes_[e.cls].heap_pos = i;
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
      if (heap_[k] < heap_[child]) child = k;
    }
    if (!(heap_[child] < e)) break;
    heap_[i] = heap_[child];
    classes_[heap_[i].cls].heap_pos = i;
    i = child;
  }
  heap_[i] = e;
  classes_[e.cls].heap_pos = i;
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
    const double moved = classes_[s.cls].rate * dt;
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
  // orders classes by the instant their smallest tag drains, so the sweep
  // stops at the first class minimum that still owes more than a bit.
  done_.clear();
  while (!heap_.empty()) {
    const Class& c = classes_[heap_.front().cls];
    const Handle h = c.members.front();
    if (slots_[h].tag - clock_at(c, now) > kBitEps) break;
    detach(h);
    done_.push_back(h);
  }
  std::sort(done_.begin(), done_.end(), [this](Handle a, Handle b) {
    return slots_[a].id.value() < slots_[b].id.value();
  });
  std::vector<std::pair<FlowId, CompletionFn>> fire;
  fire.reserve(done_.size());
  for (const Handle h : done_) {
    Slot& s = slots_[h];
    // Sub-bit residue counts as delivered so the ledger closes exactly.
    if (audit) audit_delivered_bits_ += audit_shadow_[h];
    record_trace(h, /*aborted=*/false);
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

  // Re-rate whatever the batched changes touched; unaffected classes keep
  // their rate, clock and heap key and are not revisited.
  solver_.resolve();
  for (const std::uint32_t group : solver_.rerated_classes()) {
    rerate(class_of_group_[group], solver_.class_rate(group));
  }
  if (!touched_local_.empty()) {
    // Host-local flows never reach the solver; their rate is fixed at the
    // cap, but a new one still needs its stall state settled.
    std::sort(touched_local_.begin(), touched_local_.end());
    touched_local_.erase(std::unique(touched_local_.begin(), touched_local_.end()),
                         touched_local_.end());
    for (const std::uint32_t cls : touched_local_) {
      const Class& c = classes_[cls];
      if (c.group == IncrementalMaxMin::kNoClass && !c.members.empty()) rerate(cls, c.rate);
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
  const std::uint32_t top = heap_.empty() ? kNone : heap_.front().cls;
  const double key = heap_.empty() ? kInf : heap_.front().key;
  if (pending_completion_ != sim::kInvalidEvent) {
    if (top == scheduled_class_ && key == scheduled_key_) return;  // minimum unchanged
    sim_->cancel(pending_completion_);
    pending_completion_ = sim::kInvalidEvent;
  }
  if (!std::isfinite(key)) return;
  const Class& c = classes_[top];
  const double rem =
      std::max(0.0, slots_[c.members.front()].tag - clock_at(c, sim_->now()));
  // A finite key at rate zero is a stalled member already within a bit of
  // done: drain it at the next instant.
  const double finish_s = c.rate > 0.0 ? rem / c.rate : 0.0;
  // Round up so the flow has fully drained when the event fires.
  const Duration d =
      Duration::nanos(static_cast<std::int64_t>(std::ceil(finish_s * 1e9)) + 1);
  scheduled_class_ = top;
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
  std::unordered_map<LinkId, double> link_load;
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
      link_load[link] += rate;
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
    const Class& c = classes_[s.cls];
    const double rem = s.tag - clock_at(c, now);
    const double finish = c.rate > 0.0       ? now_s + rem / c.rate
                          : rem <= kBitEps   ? c.at.as_seconds()
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

  for (const auto& [link, load] : link_load) {
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
