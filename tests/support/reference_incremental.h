// Test-only oracle: the pre-aggregation per-flow max-min engine (PR 1's
// dense/heap WaterFiller + IncrementalMaxMin), kept verbatim — modulo the
// renames and header-inlining below — when the production engine moved to
// interned paths and a struct-of-arrays kernel. Two edits since: set_cap is
// gone, with the production engine's (no test changes a live flow's cap),
// and a test-only option selects how resolve() water-fills:
//   - by default, as the engine was: one RefWaterFiller run over the union
//     of every dirty component. A round then fixes an item at another
//     component's share whenever its own share is within kEps above it, so
//     a rate can depend on which unrelated components were dirty with it;
//   - `per_component` runs RefWaterFiller once per connected component, in
//     the order the dirty seeds reach them (the production engine's
//     semantics, which the bit-equal differentials compare against).
//
// Every flow here is its own pointer-chasing SolverItem and carries its own
// std::vector<LinkId> path copy; that is exactly the point: the production
// engine must reproduce these allocations bit for bit. Deliberately
// unoptimized further; do not use outside tests/benches.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/units.h"
#include "topo/topology.h"

namespace hpn::flowsim {

namespace refinc {

constexpr double kEps = 1e-6;
constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

/// One flow as the water-filling core sees it. `rate_bps` is written in
/// place so both solver front-ends can expose their own flow records.
struct RefSolverItem {
  const std::vector<LinkId>* path = nullptr;  ///< empty/null = host-local
  double cap_bps = std::numeric_limits<double>::infinity();
  double* rate_bps = nullptr;
};

/// Dense progressive water-filling over pointer-chasing items (the pre-SoA
/// kernel). Semantics match the seed solver round for round: each round's
/// share is min(link remaining/active, tightest unfixed cap); every flow
/// on a link within kEps of that share (or capped within kEps) fixes.
class ReferenceWaterFiller {
 public:
  /// Fills `*rate_bps` for every item. Down links stall their flows at 0.
  void run(const topo::Topology& topo, std::vector<RefSolverItem>& items) {
    if (++stamp_ == 0) {  // epoch wrapped: every cached slot is now garbage
      std::fill(link_stamp_.begin(), link_stamp_.end(), 0u);
      stamp_ = 1;
    }
    slots_used_ = 0;
    heap_.clear();
    cap_order_.clear();
    fixed_.assign(items.size(), 0);

    std::size_t unfixed = 0;
    for (std::uint32_t i = 0; i < items.size(); ++i) {
      RefSolverItem& item = items[i];
      *item.rate_bps = 0.0;
      if (item.path == nullptr || item.path->empty()) {
        *item.rate_bps = std::isfinite(item.cap_bps) ? item.cap_bps : 0.0;
        fixed_[i] = 1;
        continue;
      }
      // A flow whose path crosses a down link is stalled at rate 0 (RDMA
      // retransmits into a black hole until the path is repaired/rerouted).
      bool stalled = false;
      for (const LinkId l : *item.path) stalled |= !topo.link(l).up;
      if (stalled) {
        fixed_[i] = 1;
        continue;
      }
      ++unfixed;
      for (const LinkId l : *item.path) {
        const std::uint32_t slot = touch(topo, l);
        active_[slot] += 1;
        slot_items_[slot].push_back(i);
      }
      if (std::isfinite(item.cap_bps)) cap_order_.push_back(i);
    }

    std::sort(cap_order_.begin(), cap_order_.end(),
              [&items](std::uint32_t a, std::uint32_t b) {
                if (items[a].cap_bps != items[b].cap_bps)
                  return items[a].cap_bps < items[b].cap_bps;
                return a < b;
              });
    heap_.reserve(slots_used_);
    for (std::uint32_t slot = 0; slot < slots_used_; ++slot) {
      heap_.push_back(HeapEntry{remaining_[slot] / active_[slot], slot});
    }
    std::make_heap(heap_.begin(), heap_.end(),
                   [](const HeapEntry& a, const HeapEntry& b) { return a.share > b.share; });

    std::size_t cap_ptr = 0;
    while (unfixed > 0) {
      // Bottleneck fair share: tightest link share (lazy heap: shares only
      // rise as flows fix, so a stale top re-pushes its current value), or
      // the tightest unfixed cap.
      double link_share = std::numeric_limits<double>::infinity();
      while (!heap_.empty()) {
        const HeapEntry top = heap_.front();
        if (active_[top.slot] <= 0) {
          heap_pop();
          continue;
        }
        const double cur = remaining_[top.slot] / active_[top.slot];
        if (cur > top.share) {
          heap_pop();
          heap_push(cur, top.slot);
          continue;
        }
        link_share = cur;
        break;
      }
      while (cap_ptr < cap_order_.size() && fixed_[cap_order_[cap_ptr]] != 0) ++cap_ptr;
      const double cap_share = cap_ptr < cap_order_.size()
                                   ? items[cap_order_[cap_ptr]].cap_bps
                                   : std::numeric_limits<double>::infinity();
      double share = std::min(link_share, cap_share);
      HPN_CHECK_MSG(std::isfinite(share), "water-filling found no finite bottleneck");
      share = std::max(share, 0.0);
      const double thr = share * (1.0 + kEps);

      const std::size_t unfixed_before = unfixed;

      // Fix every flow capped at (or within kEps of) the share.
      for (std::size_t p = cap_ptr; p < cap_order_.size(); ++p) {
        const std::uint32_t i = cap_order_[p];
        if (fixed_[i] != 0) continue;
        if (items[i].cap_bps > thr) break;
        fix(items, i, share, unfixed);
      }
      // Fix flows on bottleneck links in bulk: pop while the top link's
      // current share is within kEps of the round share.
      while (!heap_.empty()) {
        const HeapEntry top = heap_.front();
        if (active_[top.slot] <= 0) {
          heap_pop();
          continue;
        }
        const double cur = remaining_[top.slot] / active_[top.slot];
        if (cur > top.share) {
          heap_pop();
          heap_push(cur, top.slot);
          continue;
        }
        if (cur > thr) break;
        heap_pop();
        for (const std::uint32_t i : slot_items_[top.slot]) {
          if (fixed_[i] == 0) fix(items, i, share, unfixed);
        }
      }
      HPN_CHECK_MSG(unfixed < unfixed_before, "water-filling made no progress");
    }
  }

 private:
  struct HeapEntry {
    double share;
    std::uint32_t slot;
  };

  /// Dense slot for a link touched by this run (assigns on first touch).
  std::uint32_t touch(const topo::Topology& topo, LinkId link) {
    const std::size_t idx = link.index();
    if (idx >= link_slot_.size()) {
      link_slot_.resize(topo.link_count(), kNoSlot);
      link_stamp_.resize(topo.link_count(), 0);
    }
    if (link_stamp_[idx] == stamp_) return link_slot_[idx];
    link_stamp_[idx] = stamp_;
    const auto slot = static_cast<std::uint32_t>(slots_used_++);
    link_slot_[idx] = slot;
    if (slot >= remaining_.size()) {
      remaining_.push_back(0.0);
      active_.push_back(0);
      slot_items_.emplace_back();
    }
    remaining_[slot] = topo.link(link).capacity.as_bits_per_sec();
    active_[slot] = 0;
    slot_items_[slot].clear();
    return slot;
  }

  void fix(std::vector<RefSolverItem>& items, std::uint32_t i, double share,
           std::size_t& unfixed) {
    RefSolverItem& item = items[i];
    const double rate = std::min(share, item.cap_bps);
    *item.rate_bps = rate;
    fixed_[i] = 1;
    --unfixed;
    for (const LinkId l : *item.path) {
      const std::uint32_t slot = link_slot_[l.index()];
      remaining_[slot] = std::max(0.0, remaining_[slot] - rate);
      active_[slot] -= 1;
    }
  }

  void heap_push(double share, std::uint32_t slot) {
    heap_.push_back(HeapEntry{share, slot});
    std::push_heap(heap_.begin(), heap_.end(),
                   [](const HeapEntry& a, const HeapEntry& b) { return a.share > b.share; });
  }

  void heap_pop() {
    std::pop_heap(heap_.begin(), heap_.end(),
                  [](const HeapEntry& a, const HeapEntry& b) { return a.share > b.share; });
    heap_.pop_back();
  }

  // LinkId-indexed: dense slot of each link, valid when stamp matches.
  std::vector<std::uint32_t> link_slot_;
  std::vector<std::uint32_t> link_stamp_;
  std::uint32_t stamp_ = 0;

  // Slot-indexed link state for the current run.
  std::vector<double> remaining_;
  std::vector<std::int32_t> active_;
  std::vector<std::vector<std::uint32_t>> slot_items_;  ///< item indexes
  std::size_t slots_used_ = 0;

  std::vector<HeapEntry> heap_;          ///< lazy min-heap on share
  std::vector<std::uint32_t> cap_order_; ///< finite-cap items, cap ascending
  std::vector<std::uint8_t> fixed_;
};

}  // namespace refinc

struct ReferenceIncrementalOptions {
  /// Water-fill each dirty component in its own run instead of their union.
  bool per_component = false;
};

/// Persistent per-flow max-min state with component-scoped incremental
/// re-solve — the pre-aggregation production engine, preserved as the
/// differential oracle and the honest bench baseline.
class ReferenceIncrementalMaxMin {
 public:
  using Handle = std::uint32_t;
  static constexpr Handle kInvalidHandle = std::numeric_limits<Handle>::max();

  explicit ReferenceIncrementalMaxMin(const topo::Topology& topology,
                                      ReferenceIncrementalOptions options = {})
      : topo_{&topology}, options_{options} {}

  /// Registers a flow; its rate is available after the next resolve().
  /// Empty-path flows rate immediately at cap (host-local transfers).
  Handle add_flow(std::vector<LinkId> path, double cap_bps) {
    Handle h;
    if (!free_handles_.empty()) {
      h = free_handles_.back();
      free_handles_.pop_back();
    } else {
      h = static_cast<Handle>(flows_.size());
      flows_.emplace_back();
      flow_seen_.push_back(0);
    }
    Flow& f = flows_[h];
    f.path = std::move(path);
    f.cap_bps = cap_bps;
    f.alive = true;
    ++alive_count_;
    if (f.path.empty()) {
      // Host-local transfers are only NIC/loopback-limited; rate them now.
      f.rate_bps = std::isfinite(cap_bps) ? cap_bps : 0.0;
      return h;
    }
    f.rate_bps = 0.0;
    attach(h);
    for (const LinkId l : f.path) mark_dirty(l);
    return h;
  }

  void remove_flow(Handle h) {
    Flow& f = flows_[h];
    HPN_CHECK_MSG(f.alive, "remove_flow on dead handle");
    detach(h);
    for (const LinkId l : f.path) mark_dirty(l);
    f.path.clear();
    f.path.shrink_to_fit();
    f.alive = false;
    f.rate_bps = 0.0;
    --alive_count_;
    free_handles_.push_back(h);
  }

  /// Replace the path (port failover / reroute).
  void set_path(Handle h, std::vector<LinkId> path) {
    Flow& f = flows_[h];
    HPN_CHECK_MSG(f.alive, "set_path on dead handle");
    detach(h);
    for (const LinkId l : f.path) mark_dirty(l);
    f.path = std::move(path);
    attach(h);
    for (const LinkId l : f.path) mark_dirty(l);
    if (f.path.empty()) f.rate_bps = std::isfinite(f.cap_bps) ? f.cap_bps : 0.0;
  }

  /// A specific link flipped up/down.
  void notify_link_changed(LinkId link) { mark_dirty(link); }
  /// Some unknown set of links flipped; next resolve() diffs cached state.
  void notify_topology_changed() { scan_links_ = true; }

  /// Re-solves every dirty component. Returns the number of flows re-rated
  /// (0 when nothing changed — untouched components keep their rates).
  std::size_t resolve() {
    if (scan_links_) {
      // Unknown links flipped: diff cached up/down state of every link that
      // carries at least one flow (a flip on a flow-free link changes no
      // allocation, so it can be ignored until a flow lands on it).
      scan_links_ = false;
      for (const LinkId l : member_links_) {
        const std::uint8_t up = topo_->link(l).up ? 1 : 0;
        if (link_up_seen_[l.index()] != up) {
          link_up_seen_[l.index()] = up;
          dirty_.push_back(l);
          ++stats_.link_flips;
        }
      }
    }
    if (dirty_.empty()) {
      stats_.last_affected = 0;
      return 0;
    }

    // Closure of the flow-conflict graph over the dirty seeds: every flow on
    // a reached link joins, pulling in every link of its path. Flows outside
    // the closure share no link (transitively) with anything that changed,
    // so their max-min subproblem — and rate — is untouched.
    next_stamp();
    affected_.clear();
    if (options_.per_component) {
      for (const LinkId seed : dirty_) {
        if (link_seen_[seed.index()] == stamp_) continue;
        const std::size_t first = affected_.size();
        bfs_.clear();
        visit_link(seed);
        collect();
        water_fill(first);
      }
    } else {
      bfs_.clear();
      for (const LinkId l : dirty_) visit_link(l);
      collect();
      water_fill(0);
    }
    dirty_.clear();
    if (affected_.empty()) {
      stats_.last_affected = 0;
      return 0;
    }

    ++stats_.resolves;
    stats_.flows_rerated += affected_.size();
    stats_.last_affected = affected_.size();
    return affected_.size();
  }

  [[nodiscard]] double rate(Handle h) const { return flows_[h].rate_bps; }
  [[nodiscard]] double cap(Handle h) const { return flows_[h].cap_bps; }
  [[nodiscard]] const std::vector<LinkId>& path(Handle h) const {
    return flows_[h].path;
  }
  [[nodiscard]] std::size_t flow_count() const { return alive_count_; }
  /// Aggregate allocated rate over one link — O(flows on that link).
  [[nodiscard]] double throughput_on(LinkId link) const {
    if (link.index() >= link_flows_.size()) return 0.0;
    double sum = 0.0;
    for (const Handle h : link_flows_[link.index()]) sum += flows_[h].rate_bps;
    return sum;
  }

  struct Stats {
    std::uint64_t resolves = 0;       ///< resolve() calls that re-rated flows
    std::uint64_t flows_rerated = 0;  ///< cumulative flows re-rated
    std::uint64_t link_flips = 0;     ///< up/down transitions observed
    std::size_t last_affected = 0;    ///< flows re-rated by the last resolve
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Flow {
    std::vector<LinkId> path;
    double cap_bps = 0.0;
    double rate_bps = 0.0;
    bool alive = false;
  };

  /// Grow LinkId-indexed arrays to cover `link`.
  void ensure_link(LinkId link) {
    const std::size_t idx = link.index();
    if (idx < link_flows_.size()) return;
    const std::size_t n = std::max(topo_->link_count(), idx + 1);
    link_flows_.resize(n);
    link_up_seen_.resize(n, 1);
    member_pos_.resize(n, refinc::kNoSlot);
    link_seen_.resize(n, 0);
  }

  void attach(Handle h) {
    for (const LinkId l : flows_[h].path) {
      ensure_link(l);
      const std::size_t idx = l.index();
      if (link_flows_[idx].empty()) {
        member_pos_[idx] = static_cast<std::uint32_t>(member_links_.size());
        member_links_.push_back(l);
        link_up_seen_[idx] = topo_->link(l).up ? 1 : 0;
      }
      link_flows_[idx].push_back(h);
    }
  }

  void detach(Handle h) {
    for (const LinkId l : flows_[h].path) {
      const std::size_t idx = l.index();
      auto& members = link_flows_[idx];
      const auto it = std::find(members.begin(), members.end(), h);
      HPN_CHECK_MSG(it != members.end(), "flow missing from link membership");
      *it = members.back();
      members.pop_back();
      if (members.empty()) {
        // Swap-erase this link out of the member list.
        const std::uint32_t pos = member_pos_[idx];
        const LinkId moved = member_links_.back();
        member_links_[pos] = moved;
        member_pos_[moved.index()] = pos;
        member_links_.pop_back();
        member_pos_[idx] = refinc::kNoSlot;
      }
    }
  }

  void mark_dirty(LinkId link) {
    ensure_link(link);
    dirty_.push_back(link);
  }

  /// Breadth-first from the links queued in bfs_: every flow on a reached
  /// link joins affected_ and queues every link of its path.
  void collect() {
    for (std::size_t qi = 0; qi < bfs_.size(); ++qi) {
      const LinkId l = bfs_[qi];
      link_up_seen_[l.index()] = topo_->link(l).up ? 1 : 0;
      for (const Handle h : link_flows_[l.index()]) {
        if (flow_seen_[h] == stamp_) continue;
        flow_seen_[h] = stamp_;
        affected_.push_back(h);
        for (const LinkId pl : flows_[h].path) visit_link(pl);
      }
    }
  }

  /// One RefWaterFiller run over the flows affected_[first..].
  void water_fill(std::size_t first) {
    if (first == affected_.size()) return;
    items_.clear();
    items_.reserve(affected_.size() - first);
    for (std::size_t i = first; i < affected_.size(); ++i) {
      Flow& f = flows_[affected_[i]];
      items_.push_back(refinc::RefSolverItem{&f.path, f.cap_bps, &f.rate_bps});
    }
    filler_.run(*topo_, items_);
  }

  void next_stamp() {
    if (++stamp_ == 0) {
      std::fill(link_seen_.begin(), link_seen_.end(), 0u);
      std::fill(flow_seen_.begin(), flow_seen_.end(), 0u);
      stamp_ = 1;
    }
  }

  void visit_link(LinkId link) {
    ensure_link(link);
    const std::size_t idx = link.index();
    if (link_seen_[idx] == stamp_) return;
    link_seen_[idx] = stamp_;
    bfs_.push_back(link);
  }

  const topo::Topology* topo_;
  ReferenceIncrementalOptions options_;
  std::vector<Flow> flows_;
  std::vector<Handle> free_handles_;
  std::size_t alive_count_ = 0;

  // LinkId-indexed membership and cached up/down state.
  std::vector<std::vector<Handle>> link_flows_;
  std::vector<std::uint8_t> link_up_seen_;
  std::vector<LinkId> member_links_;         ///< links with >=1 flow
  std::vector<std::uint32_t> member_pos_;    ///< link -> member_links_ slot

  std::vector<LinkId> dirty_;
  bool scan_links_ = false;

  // resolve() scratch: epoch-stamped visited marks for the component BFS.
  std::vector<std::uint32_t> link_seen_;
  std::vector<std::uint32_t> flow_seen_;
  std::uint32_t stamp_ = 0;
  std::vector<LinkId> bfs_;
  std::vector<Handle> affected_;
  std::vector<refinc::RefSolverItem> items_;
  refinc::ReferenceWaterFiller filler_;
  Stats stats_;
};

}  // namespace hpn::flowsim
