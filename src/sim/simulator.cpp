#include "sim/simulator.h"

#include <utility>

namespace hpn::sim {

namespace {

/// Compact once tombstones outnumber live entries and are worth the
/// rebuild; small queues drain lazily.
constexpr std::size_t kCompactMinQueue = 64;

}  // namespace

std::uint32_t Simulator::alloc_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = pool_[slot].next_free;
    pool_[slot].next_free = kNoSlot;
    return slot;
  }
  HPN_CHECK_MSG(pool_.size() < kNoSlot, "event pool exhausted (2^32-1 slots)");
  pool_.emplace_back();
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

void Simulator::recycle_slot(std::uint32_t slot) {
  Slot& s = pool_[slot];
  s.fn.reset();
  s.armed = false;
  // Bumping the generation here (not just on cancel) also kills handles to
  // fired events; wrap skips 0 so a handle is never kInvalidEvent.
  if (++s.gen == 0) s.gen = 1;
  s.next_free = free_head_;
  free_head_ = slot;
}

EventId Simulator::schedule_at(TimePoint t, Callback cb) {
  HPN_CHECK_MSG(t >= now_, "cannot schedule into the past: " << to_string(t)
                               << " < now " << to_string(now_));
  HPN_CHECK(static_cast<bool>(cb));
  const std::uint32_t slot = alloc_slot();
  Slot& s = pool_[slot];
  s.armed = true;
  s.fn = std::move(cb);
  ++live_;
  queue_.push_back(HeapEntry{t, next_seq_++, slot});
  sift_up(queue_, queue_.size() - 1);
  return make_id(s.gen, slot);
}

bool Simulator::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (gen == 0 || slot >= pool_.size()) return false;
  Slot& s = pool_[slot];
  if (s.gen != gen || !s.armed) return false;
  // O(1) tombstone: the queue entry stays put (its key keeps it ordered) and
  // is reclaimed when popped or compacted. The generation bump makes the
  // handle stale immediately, so a second cancel — or a cancel after the
  // slot is recycled — returns false.
  s.armed = false;
  s.fn.reset();  // release captures promptly
  if (++s.gen == 0) s.gen = 1;
  --live_;
  ++tombstones_;
  maybe_compact();
  return true;
}

void Simulator::sift_up(std::vector<HeapEntry>& h, std::size_t i) {
  const HeapEntry entry = h[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(entry, h[parent])) break;
    h[i] = h[parent];
    i = parent;
  }
  h[i] = entry;
}

void Simulator::sift_down(std::vector<HeapEntry>& h, std::size_t i) {
  const HeapEntry entry = h[i];
  const std::size_t n = h.size();
  for (;;) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t last_child = first_child + 4 < n ? first_child + 4 : n;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (before(h[c], h[best])) best = c;
    }
    if (!before(h[best], entry)) break;
    h[i] = h[best];
    i = best;
  }
  h[i] = entry;
}

Simulator::HeapEntry Simulator::heap_pop(std::vector<HeapEntry>& h) {
  const HeapEntry top = h[0];
  const HeapEntry tail = h.back();
  h.pop_back();
  if (!h.empty()) {
    h[0] = tail;
    sift_down(h, 0);
  }
  return top;
}

const Simulator::HeapEntry* Simulator::peek() {
  while (!queue_.empty()) {
    if (pool_[queue_[0].slot].armed) return &queue_[0];
    recycle_slot(queue_[0].slot);
    --tombstones_;
    heap_pop(queue_);
  }
  return nullptr;
}

Simulator::HeapEntry Simulator::heap_pop_live() {
  while (!queue_.empty()) {
    const HeapEntry top = heap_pop(queue_);
    // Pull the *next* event's slot toward the cache while the current
    // callback runs; with hundreds of thousands of live events the pool is
    // far larger than L2 and this pop-to-pop miss dominates otherwise.
    if (!queue_.empty()) __builtin_prefetch(&pool_[queue_[0].slot]);
    if (pool_[top.slot].armed) return top;
    recycle_slot(top.slot);
    --tombstones_;
  }
  return HeapEntry{};
}

void Simulator::maybe_compact() {
  const std::size_t total = live_ + tombstones_;
  if (total < kCompactMinQueue || tombstones_ * 2 <= total) return;
  std::size_t kept = 0;
  for (const HeapEntry& e : queue_) {
    if (pool_[e.slot].armed) {
      queue_[kept++] = e;
    } else {
      recycle_slot(e.slot);
    }
  }
  queue_.resize(kept);
  // Floyd build-heap: the last internal node of a 4-ary heap of n entries
  // is (n-2)/4, hence the +2 before the truncating divide. Ordering comes
  // from (at, seq), so the compacted queue pops in exactly the same
  // sequence as the lazy one.
  for (std::size_t i = (kept + 2) / 4; i-- > 0;) sift_down(queue_, i);
  tombstones_ = 0;
}

bool Simulator::step() {
  const HeapEntry top = heap_pop_live();
  if (top.slot == kNoSlot) return false;
  // The auditor records monotonicity violations (fuzz runs want the full
  // report); the structural HPN_CHECK below still stops a corrupted queue.
  auditor_.check(top.at >= now_, AuditRule::kEventTimeMonotonic, now_, [&] {
    std::ostringstream os;
    os << "event at " << to_string(top.at) << " fired behind clock "
       << to_string(now_) << " (seq " << top.seq << ")";
    return os.str();
  });
  HPN_CHECK(top.at >= now_);
  now_ = top.at;
  ++processed_;
  --live_;
  // Move the callback out and recycle the slot *before* invoking: the
  // callback may schedule (growing/reallocating the pool) or cancel freely.
  InlineCallback fn = std::move(pool_[top.slot].fn);
  recycle_slot(top.slot);
  fn();
  return true;
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(TimePoint t) {
  HPN_CHECK(t >= now_);
  for (;;) {
    const HeapEntry* head = peek();
    if (head == nullptr || head->at > t) break;
    step();
  }
  now_ = t;
}

TimePoint Simulator::next_event_time() const {
  // The queue head can be a tombstone; reclaiming it mutates only
  // bookkeeping (never observable event order), same as the seed engine's
  // lazy pop.
  const HeapEntry* head = const_cast<Simulator&>(*this).peek();
  return head != nullptr ? head->at : TimePoint::far_future();
}

PeriodicTimer::PeriodicTimer(Simulator& simulator, Duration period,
                             std::function<bool()> tick, bool immediate)
    : sim_{simulator}, period_{period}, tick_{std::move(tick)} {
  HPN_CHECK(period_ > Duration::zero());
  HPN_CHECK(tick_ != nullptr);
  arm(immediate ? Duration::zero() : period_);
}

void PeriodicTimer::arm(Duration delay) {
  pending_ = sim_.schedule_after(delay, [this] {
    pending_ = kInvalidEvent;
    if (tick_()) arm(period_);
  });
}

void PeriodicTimer::stop() {
  if (pending_ != kInvalidEvent) {
    sim_.cancel(pending_);
    pending_ = kInvalidEvent;
  }
}

}  // namespace hpn::sim
