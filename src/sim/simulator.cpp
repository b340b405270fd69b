#include "sim/simulator.h"

#include <bit>
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
  insert_entry(HeapEntry{t, next_seq_++, slot});
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

void Simulator::insert_entry(const HeapEntry& e) {
  const std::int64_t b = bucket_no(e.at);
  if (b <= cur_bucket_) {
    // At or behind the cursor (the cursor can lag now_ after run_until
    // crossed empty buckets): ordering is still exact because everything in
    // near_ precedes everything in later buckets.
    near_.push_back(e);
    sift_up(near_, near_.size() - 1);
  } else if (b < cur_bucket_ + static_cast<std::int64_t>(kNumBuckets)) {
    const std::size_t idx = static_cast<std::size_t>(b) & kBucketMask;
    buckets_[idx].push_back(e);
    occ_set(idx);
  } else {
    far_.push_back(e);
    sift_up(far_, far_.size() - 1);
  }
}

std::int64_t Simulator::scan_buckets() const {
  // All occupied buckets lie strictly inside (cur_bucket_, cur_bucket_ + N),
  // so the first set bit in circular order from the cursor is the earliest.
  const std::size_t cur_idx = static_cast<std::size_t>(cur_bucket_) & kBucketMask;
  const std::size_t start = (cur_idx + 1) & kBucketMask;
  constexpr std::size_t kWords = kNumBuckets / 64;
  std::size_t word = start >> 6;
  std::uint64_t bits = occ_[word] & (~std::uint64_t{0} << (start & 63));
  for (std::size_t n = 0; n <= kWords; ++n) {
    if (bits != 0) {
      const std::size_t idx =
          (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
      const std::size_t delta = (idx - cur_idx) & kBucketMask;
      return cur_bucket_ + static_cast<std::int64_t>(delta);
    }
    word = (word + 1) & (kWords - 1);
    bits = occ_[word];
  }
  return -1;
}

bool Simulator::refill() {
  for (;;) {
    // Overflow entries that slid inside the window belong on the wheel (or
    // in near_, when the cursor jumped straight to their bucket).
    while (!far_.empty() && bucket_no(far_[0].at) <
                                cur_bucket_ + static_cast<std::int64_t>(kNumBuckets)) {
      insert_entry(heap_pop(far_));
    }
    if (!near_.empty()) return true;
    const std::int64_t b = scan_buckets();
    if (b >= 0) {
      cur_bucket_ = b;
      const std::size_t idx = static_cast<std::size_t>(b) & kBucketMask;
      std::vector<HeapEntry>& vec = buckets_[idx];
      // Copy (not move) so both vectors keep their capacity — steady state
      // allocates nothing.
      near_.assign(vec.begin(), vec.end());
      vec.clear();
      occ_clear(idx);
      // Floyd build-heap: the last internal node of a 4-ary heap of n
      // entries is (n-2)/4, hence the +2 before the truncating divide.
      for (std::size_t i = (near_.size() + 2) / 4; i-- > 0;) sift_down(near_, i);
      return true;
    }
    if (far_.empty()) return false;
    cur_bucket_ = bucket_no(far_[0].at);  // wheel empty: jump to the overflow min
  }
}

const Simulator::HeapEntry* Simulator::peek() {
  for (;;) {
    if (near_.empty() && !refill()) return nullptr;
    if (pool_[near_[0].slot].armed) return &near_[0];
    recycle_slot(near_[0].slot);
    --tombstones_;
    heap_pop(near_);
  }
}

Simulator::HeapEntry Simulator::heap_pop_live() {
  for (;;) {
    if (near_.empty() && !refill()) return HeapEntry{};
    const HeapEntry top = heap_pop(near_);
    // Pull the *next* event's slot toward the cache while the current
    // callback runs; with hundreds of thousands of live events the pool is
    // far larger than L2 and this pop-to-pop miss dominates otherwise.
    if (!near_.empty()) __builtin_prefetch(&pool_[near_[0].slot]);
    if (pool_[top.slot].armed) return top;
    recycle_slot(top.slot);
    --tombstones_;
  }
}

void Simulator::maybe_compact() {
  const std::size_t total = live_ + tombstones_;
  if (total < kCompactMinQueue || tombstones_ * 2 <= total) return;
  auto sweep = [this](std::vector<HeapEntry>& v) {
    std::size_t kept = 0;
    for (const HeapEntry& e : v) {
      if (pool_[e.slot].armed) {
        v[kept++] = e;
      } else {
        recycle_slot(e.slot);
      }
    }
    v.resize(kept);
    return kept;
  };
  // Floyd rebuild for the heaps; ordering comes from (at, seq) so the
  // compacted queue pops in exactly the same sequence as the lazy one.
  for (std::size_t i = (sweep(near_) + 2) / 4; i-- > 0;) sift_down(near_, i);
  for (std::size_t i = (sweep(far_) + 2) / 4; i-- > 0;) sift_down(far_, i);
  // Walk only occupied buckets via the bitmap.
  for (std::size_t word = 0; word < occ_.size(); ++word) {
    std::uint64_t bits = occ_[word];
    while (bits != 0) {
      const std::size_t idx =
          (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      if (sweep(buckets_[idx]) == 0) occ_clear(idx);
    }
  }
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
