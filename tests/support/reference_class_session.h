// Test-only oracle: the FlowSession and IncrementalMaxMin (with the
// water-filler it calls) as they stood while the solver still grouped flows
// into (path, cap) classes and the session kept one service clock per
// class. Kept verbatim, header-inlined and renamed into namespace
// hpn::reference (ClassFlowSession, ClassIncrementalMaxMin,
// class_detail::WaterFiller), with three edits: both constructors default
// to Aggregation::kPerFlow (they defaulted to kMacroFlows); FlowRecord,
// which the production session no longer has, is declared inside
// ClassFlowSession; and snapshot()/restore() went with the production
// session's. Per-flow, every
// class has one member; ClassSessionDifferential requires the production
// session to reproduce this engine's completion nanoseconds, fire order,
// tracer bytes and simulator event counts exactly. Deliberately unoptimized
// further; do not use outside tests.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/units.h"
#include "flowsim/path_table.h"
#include "flowsim/session.h"
#include "sim/simulator.h"
#include "topo/topology.h"

namespace hpn::reference {

using flowsim::PathTable;

/// How ClassIncrementalMaxMin maps flows onto water-filling items.
enum class Aggregation : std::uint8_t {
  /// Every flow is its own solver item — the differential-oracle mode,
  /// bit-equal to the preserved pre-aggregation engine.
  kPerFlow,
  /// Flows with identical (interned path, cap bit-pattern) collapse into
  /// one weighted item; the fair share divides exactly among members.
  kMacroFlows,
};

namespace class_detail {

/// Struct-of-arrays progressive water-filling. Items are registered via
/// begin()/add_item() (flat parallel arrays: cap, weight, rate, fixed, and
/// a CSR of path links); run() builds the link->item incidence CSR for the
/// touched links (epoch-stamped dense slots, reused across runs) and fixes
/// bottlenecked items in bulk. Semantics match the seed solver round for
/// round: each round's share is min(link remaining/active_weight, tightest
/// unfixed cap); every item on a link within kEps of that share (or capped
/// within kEps) fixes at min(share, cap), draining weight*rate from each
/// link occurrence on its path.
class WaterFiller {
 public:
  /// Start a new item batch (clears previous items, keeps link scratch).
  void begin(std::size_t item_hint);

  /// Register one item. `weight` is the macro-flow member count (1 for
  /// per-flow items); `links` may contain duplicates (multigraph walks) —
  /// each occurrence drains the link separately, as w parallel flows would.
  std::uint32_t add_item(const LinkId* links, std::size_t hops, double cap_bps,
                         double weight);

  /// Rate every item. Down links stall their items at 0.
  void run(const topo::Topology& topo);

  /// Per-member allocated rate of item `i` (valid after run()).
  [[nodiscard]] double rate(std::uint32_t i) const { return item_rate_[i]; }

 private:
  struct HeapEntry {
    double share;
    std::uint32_t slot;
  };

  /// Dense slot for a link touched by this run (assigns on first touch).
  std::uint32_t touch(const topo::Topology& topo, LinkId link);
  void fix(std::uint32_t i, double share, std::size_t& unfixed);
  void heap_push(double share, std::uint32_t slot);
  void heap_pop();

  // Item SoA. item_path_off_ is a CSR into path_links_ (size items+1).
  std::vector<std::uint32_t> item_path_off_;
  std::vector<LinkId> path_links_;
  std::vector<double> item_cap_;
  std::vector<double> item_weight_;
  std::vector<double> item_rate_;
  std::vector<std::uint8_t> item_fixed_;

  // LinkId-indexed: dense slot of each link, valid when stamp matches.
  std::vector<std::uint32_t> link_slot_;
  std::vector<std::uint32_t> link_stamp_;
  std::uint32_t stamp_ = 0;

  // Slot-indexed link state for the current run.
  std::vector<double> remaining_;
  std::vector<double> active_weight_;
  std::size_t slots_used_ = 0;

  // Slot -> item incidence CSR, rebuilt per run (count, prefix-sum, fill).
  std::vector<std::uint32_t> slot_count_;
  std::vector<std::uint32_t> slot_items_off_;
  std::vector<std::uint32_t> slot_items_;

  std::vector<HeapEntry> heap_;          ///< lazy min-heap on share
  std::vector<std::uint32_t> cap_order_; ///< finite-cap items, cap ascending
};

}  // namespace class_detail

/// Persistent max-min state with component-scoped incremental re-solve and
/// macro-flow aggregation.
///
/// Rates are valid after resolve() and stay valid until the flow set or
/// link states change again. Link up/down flips are discovered either
/// via notify_link_changed (targeted) or notify_topology_changed (an
/// unknown set flipped: resolve() diffs the cached up/down state of every
/// link that carries flows — O(active links), no topology scan).
///
/// Internally flows are grouped into equivalence classes by (interned
/// path, cap bit-pattern); the component BFS, dirty tracking, and solver
/// items all operate on classes, so a ring collective with 16 same-edge
/// members costs one item instead of 16. Per-flow counters (resolve()'s
/// return value, stats().flows_rerated) stay member-weighted.
class ClassIncrementalMaxMin {
 public:
  using Handle = std::uint32_t;
  static constexpr Handle kInvalidHandle = std::numeric_limits<Handle>::max();

  explicit ClassIncrementalMaxMin(const topo::Topology& topology,
                             Aggregation mode = Aggregation::kPerFlow)
      : topo_{&topology}, mode_{mode} {}

  /// Registers a flow; its rate is available after the next resolve().
  /// Empty-path flows rate immediately at cap (host-local transfers).
  Handle add_flow(const std::vector<LinkId>& path, double cap_bps) {
    return add_flow(paths_.intern(path), cap_bps);
  }
  Handle add_flow(PathId path, double cap_bps);
  void remove_flow(Handle h);
  /// Replace the path (port failover / reroute).
  void set_path(Handle h, const std::vector<LinkId>& path) {
    set_path(h, paths_.intern(path));
  }
  void set_path(Handle h, PathId path);
  void set_cap(Handle h, double cap_bps);

  /// A specific link flipped up/down.
  void notify_link_changed(LinkId link);
  /// Some unknown set of links flipped; next resolve() diffs cached state.
  void notify_topology_changed() { scan_links_ = true; }

  /// Re-solves every dirty component. Returns the number of flows re-rated
  /// (0 when nothing changed — untouched components keep their rates).
  std::size_t resolve();

  /// Class of a network flow; kNoClass for a host-local one. Class ids are
  /// dense and recycled once a class's last member leaves.
  static constexpr std::uint32_t kNoClass = std::numeric_limits<std::uint32_t>::max();
  [[nodiscard]] std::uint32_t class_of(Handle h) const { return flows_[h].group; }
  /// Per-member rate of a live class as of the last resolve().
  [[nodiscard]] double class_rate(std::uint32_t c) const { return groups_[c].rate_bps; }
  /// Classes the last resolve() re-rated (empty if it re-rated none). Valid
  /// until the next add/remove/set_path/set_cap.
  [[nodiscard]] const std::vector<std::uint32_t>& rerated_classes() const {
    return affected_groups_;
  }

  [[nodiscard]] double rate(Handle h) const {
    const Flow& f = flows_[h];
    return f.group == kNoGroup ? f.rate_bps : groups_[f.group].rate_bps;
  }
  [[nodiscard]] double cap(Handle h) const { return flows_[h].cap_bps; }
  [[nodiscard]] const std::vector<LinkId>& path(Handle h) const {
    return paths_.links(flows_[h].path);
  }
  [[nodiscard]] PathId path_id(Handle h) const { return flows_[h].path; }
  [[nodiscard]] std::size_t flow_count() const { return alive_count_; }
  [[nodiscard]] Aggregation mode() const { return mode_; }

  /// The interner shared by every path this engine has seen. Callers that
  /// send the same path repeatedly (collectives) intern once and pass the
  /// PathId overloads to skip the per-flow vector hashing entirely.
  [[nodiscard]] PathTable& paths() { return paths_; }
  [[nodiscard]] const PathTable& paths() const { return paths_; }

  /// Aggregate allocated rate over one link — O(classes on that link).
  [[nodiscard]] double throughput_on(LinkId link) const;

  struct Stats {
    std::uint64_t resolves = 0;       ///< resolve() calls that re-rated flows
    std::uint64_t flows_rerated = 0;  ///< cumulative flows re-rated
    std::uint64_t link_flips = 0;     ///< up/down transitions observed
    std::size_t last_affected = 0;    ///< flows re-rated by the last resolve
    std::uint64_t macros_formed = 0;  ///< classes that reached 2 members
    std::uint64_t demotions = 0;      ///< members split out of a >=2 macro
                                      ///< by set_cap/set_path divergence
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Point-in-time shape of the aggregation (live network flows only;
  /// host-local flows never reach the solver). O(classes) to compute.
  struct AggregationSnapshot {
    std::size_t flows = 0;         ///< member flows across all classes
    std::size_t macro_flows = 0;   ///< solver items after aggregation
    std::size_t multi_member = 0;  ///< classes with >= 2 members
    std::size_t members_p50 = 0;   ///< median members per class
    std::size_t members_max = 0;   ///< largest class
    /// Flow-count collapse factor the solver enjoys (1.0 = no aggregation).
    [[nodiscard]] double collapse() const {
      return macro_flows == 0
                 ? 1.0
                 : static_cast<double>(flows) / static_cast<double>(macro_flows);
    }
  };
  [[nodiscard]] AggregationSnapshot aggregation() const;

 private:
  static constexpr std::uint32_t kNoGroup = kNoClass;

  struct Flow {
    PathId path = PathTable::kEmpty;
    double cap_bps = 0.0;
    /// Authoritative only for host-local flows (group == kNoGroup);
    /// network flows read their class's rate.
    double rate_bps = 0.0;
    std::uint32_t group = kNoGroup;
    std::uint32_t member_pos = 0;  ///< index into the class's member list
    bool alive = false;
  };

  /// One (path, cap) equivalence class == one weighted solver item.
  struct Group {
    PathId path = PathId::invalid();
    double cap_bps = 0.0;
    double rate_bps = 0.0;  ///< per-member rate from the last resolve
    std::vector<Handle> members;
  };

  struct GroupKey {
    std::uint32_t path;
    std::uint64_t cap_bits;
    bool operator==(const GroupKey&) const = default;
  };
  struct GroupKeyHash {
    std::size_t operator()(const GroupKey& k) const noexcept {
      std::uint64_t h = k.cap_bits * 0x9E3779B97F4A7C15ULL ^
                        (static_cast<std::uint64_t>(k.path) << 1);
      h ^= h >> 30;
      h *= 0xBF58476D1CE4E5B9ULL;
      h ^= h >> 27;
      return static_cast<std::size_t>(h);
    }
  };

  static GroupKey key_of(PathId path, double cap_bps) {
    return GroupKey{path.value(), std::bit_cast<std::uint64_t>(cap_bps)};
  }

  /// Grow LinkId-indexed arrays to cover `link`.
  void ensure_link(LinkId link);
  std::uint32_t new_group(PathId path, double cap_bps);
  void attach_group(std::uint32_t gid);
  void detach_group(std::uint32_t gid);
  /// Find-or-create the class for `h`'s (path, cap) and add it.
  void join_group(Handle h);
  /// Remove `h` from its class, freeing empty classes.
  void leave_group(Handle h, bool count_demotion);
  void mark_dirty(LinkId link);
  void mark_path_dirty(PathId path);
  void next_stamp();
  void visit_link(LinkId link);

  const topo::Topology* topo_;
  Aggregation mode_;
  PathTable paths_;
  std::vector<Flow> flows_;
  std::vector<Handle> free_handles_;
  std::size_t alive_count_ = 0;

  std::vector<Group> groups_;
  std::vector<std::uint32_t> free_groups_;
  /// (path, cap) -> class id; only maintained in kMacroFlows mode.
  std::unordered_map<GroupKey, std::uint32_t, GroupKeyHash> group_index_;

  // LinkId-indexed membership (class ids, one entry per path occurrence)
  // and cached up/down state.
  std::vector<std::vector<std::uint32_t>> link_groups_;
  std::vector<std::uint8_t> link_up_seen_;
  std::vector<LinkId> member_links_;         ///< links with >=1 class
  std::vector<std::uint32_t> member_pos_;    ///< link -> member_links_ slot

  std::vector<LinkId> dirty_;
  bool scan_links_ = false;

  // resolve() scratch: epoch-stamped visited marks for the component BFS.
  std::vector<std::uint32_t> link_seen_;
  std::vector<std::uint32_t> group_seen_;
  std::uint32_t stamp_ = 0;
  std::vector<LinkId> bfs_;
  std::vector<std::uint32_t> affected_groups_;
  class_detail::WaterFiller filler_;
  Stats stats_;
};


namespace class_detail {

inline constexpr double kEps = 1e-6;
inline constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();


inline void WaterFiller::begin(std::size_t item_hint) {
  item_path_off_.clear();
  item_path_off_.reserve(item_hint + 1);
  item_path_off_.push_back(0);
  path_links_.clear();
  item_cap_.clear();
  item_cap_.reserve(item_hint);
  item_weight_.clear();
  item_rate_.clear();
  item_fixed_.clear();
}

inline std::uint32_t WaterFiller::add_item(const LinkId* links, std::size_t hops,
                                    double cap_bps, double weight) {
  const auto i = static_cast<std::uint32_t>(item_cap_.size());
  path_links_.insert(path_links_.end(), links, links + hops);
  item_path_off_.push_back(static_cast<std::uint32_t>(path_links_.size()));
  item_cap_.push_back(cap_bps);
  item_weight_.push_back(weight);
  item_rate_.push_back(0.0);
  item_fixed_.push_back(0);
  return i;
}

inline void WaterFiller::heap_push(double share, std::uint32_t slot) {
  heap_.push_back(HeapEntry{share, slot});
  std::push_heap(heap_.begin(), heap_.end(),
                 [](const HeapEntry& a, const HeapEntry& b) { return a.share > b.share; });
}

inline void WaterFiller::heap_pop() {
  std::pop_heap(heap_.begin(), heap_.end(),
                [](const HeapEntry& a, const HeapEntry& b) { return a.share > b.share; });
  heap_.pop_back();
}

inline std::uint32_t WaterFiller::touch(const topo::Topology& topo, LinkId link) {
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
    active_weight_.push_back(0.0);
    slot_count_.push_back(0);
  }
  remaining_[slot] = topo.link(link).capacity.as_bits_per_sec();
  active_weight_[slot] = 0.0;
  slot_count_[slot] = 0;
  return slot;
}

inline void WaterFiller::fix(std::uint32_t i, double share, std::size_t& unfixed) {
  const double rate = std::min(share, item_cap_[i]);
  item_rate_[i] = rate;
  item_fixed_[i] = 1;
  --unfixed;
  // Weight-1 items drain exactly `rate` per occurrence (1.0 * r == r), so
  // per-flow mode is bit-equal to the reference kernel; weighted drains are
  // exact in reals, within float rounding of w singleton subtractions.
  const double w = item_weight_[i];
  const double drain = w * rate;
  const std::uint32_t pend = item_path_off_[i + 1];
  for (std::uint32_t k = item_path_off_[i]; k < pend; ++k) {
    const std::uint32_t slot = link_slot_[path_links_[k].index()];
    remaining_[slot] = std::max(0.0, remaining_[slot] - drain);
    active_weight_[slot] -= w;
  }
}

inline void WaterFiller::run(const topo::Topology& topo) {
  if (++stamp_ == 0) {  // epoch wrapped: every cached slot is now garbage
    std::fill(link_stamp_.begin(), link_stamp_.end(), 0u);
    stamp_ = 1;
  }
  slots_used_ = 0;
  heap_.clear();
  cap_order_.clear();
  const auto n = static_cast<std::uint32_t>(item_cap_.size());

  // Pass 1: classify items and register their link occurrences (slot
  // weights, plus per-slot occurrence counts for the CSR below).
  std::size_t unfixed = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    item_rate_[i] = 0.0;
    const std::uint32_t pbeg = item_path_off_[i];
    const std::uint32_t pend = item_path_off_[i + 1];
    if (pbeg == pend) {
      item_rate_[i] = std::isfinite(item_cap_[i]) ? item_cap_[i] : 0.0;
      item_fixed_[i] = 1;
      continue;
    }
    // An item whose path crosses a down link is stalled at rate 0 (RDMA
    // retransmits into a black hole until the path is repaired/rerouted).
    bool stalled = false;
    for (std::uint32_t k = pbeg; k < pend; ++k) stalled |= !topo.link(path_links_[k]).up;
    if (stalled) {
      item_fixed_[i] = 1;
      continue;
    }
    ++unfixed;
    const double w = item_weight_[i];
    for (std::uint32_t k = pbeg; k < pend; ++k) {
      const std::uint32_t slot = touch(topo, path_links_[k]);
      active_weight_[slot] += w;
      ++slot_count_[slot];
    }
    if (std::isfinite(item_cap_[i])) cap_order_.push_back(i);
  }

  // Build the slot -> item incidence CSR: prefix-sum the occurrence counts,
  // then fill (reusing slot_count_ as the per-slot write cursor). Duplicate
  // links in a path (multigraph walks) yield one entry per occurrence.
  slot_items_off_.assign(slots_used_ + 1, 0);
  for (std::uint32_t s = 0; s < slots_used_; ++s) {
    slot_items_off_[s + 1] = slot_items_off_[s] + slot_count_[s];
  }
  slot_items_.resize(slot_items_off_[slots_used_]);
  for (std::uint32_t s = 0; s < slots_used_; ++s) slot_count_[s] = slot_items_off_[s];
  for (std::uint32_t i = 0; i < n; ++i) {
    if (item_fixed_[i] != 0) continue;  // host-local or stalled: never touched
    const std::uint32_t pend = item_path_off_[i + 1];
    for (std::uint32_t k = item_path_off_[i]; k < pend; ++k) {
      const std::uint32_t slot = link_slot_[path_links_[k].index()];
      slot_items_[slot_count_[slot]++] = i;
    }
  }

  std::sort(cap_order_.begin(), cap_order_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              if (item_cap_[a] != item_cap_[b]) return item_cap_[a] < item_cap_[b];
              return a < b;
            });
  heap_.reserve(slots_used_);
  for (std::uint32_t slot = 0; slot < slots_used_; ++slot) {
    heap_.push_back(HeapEntry{remaining_[slot] / active_weight_[slot], slot});
  }
  std::make_heap(heap_.begin(), heap_.end(),
                 [](const HeapEntry& a, const HeapEntry& b) { return a.share > b.share; });

  std::size_t cap_ptr = 0;
  while (unfixed > 0) {
    // Bottleneck fair share: tightest link share (lazy heap: shares only
    // rise as items fix, so a stale top re-pushes its current value), or
    // the tightest unfixed cap.
    double link_share = std::numeric_limits<double>::infinity();
    while (!heap_.empty()) {
      const HeapEntry top = heap_.front();
      if (active_weight_[top.slot] <= 0.0) {
        heap_pop();
        continue;
      }
      const double cur = remaining_[top.slot] / active_weight_[top.slot];
      if (cur > top.share) {
        heap_pop();
        heap_push(cur, top.slot);
        continue;
      }
      link_share = cur;
      break;
    }
    while (cap_ptr < cap_order_.size() && item_fixed_[cap_order_[cap_ptr]] != 0) ++cap_ptr;
    const double cap_share = cap_ptr < cap_order_.size()
                                 ? item_cap_[cap_order_[cap_ptr]]
                                 : std::numeric_limits<double>::infinity();
    double share = std::min(link_share, cap_share);
    HPN_CHECK_MSG(std::isfinite(share), "water-filling found no finite bottleneck");
    share = std::max(share, 0.0);
    const double thr = share * (1.0 + kEps);

    const std::size_t unfixed_before = unfixed;

    // Fix every item capped at (or within kEps of) the share.
    for (std::size_t p = cap_ptr; p < cap_order_.size(); ++p) {
      const std::uint32_t i = cap_order_[p];
      if (item_fixed_[i] != 0) continue;
      if (item_cap_[i] > thr) break;
      fix(i, share, unfixed);
    }
    // Fix items on bottleneck links in bulk: pop while the top link's
    // current share is within kEps of the round share.
    while (!heap_.empty()) {
      const HeapEntry top = heap_.front();
      if (active_weight_[top.slot] <= 0.0) {
        heap_pop();
        continue;
      }
      const double cur = remaining_[top.slot] / active_weight_[top.slot];
      if (cur > top.share) {
        heap_pop();
        heap_push(cur, top.slot);
        continue;
      }
      if (cur > thr) break;
      heap_pop();
      const std::uint32_t send = slot_items_off_[top.slot + 1];
      for (std::uint32_t k = slot_items_off_[top.slot]; k < send; ++k) {
        const std::uint32_t i = slot_items_[k];
        if (item_fixed_[i] == 0) fix(i, share, unfixed);
      }
    }
    HPN_CHECK_MSG(unfixed < unfixed_before, "water-filling made no progress");
  }
}

}  // namespace class_detail

inline ClassIncrementalMaxMin::Handle ClassIncrementalMaxMin::add_flow(PathId path, double cap_bps) {
  Handle h;
  if (!free_handles_.empty()) {
    h = free_handles_.back();
    free_handles_.pop_back();
  } else {
    h = static_cast<Handle>(flows_.size());
    flows_.emplace_back();
  }
  Flow& f = flows_[h];
  f.path = path;
  f.cap_bps = cap_bps;
  f.alive = true;
  f.group = kNoGroup;
  ++alive_count_;
  if (paths_.hops(path) == 0) {
    // Host-local transfers are only NIC/loopback-limited; rate them now.
    f.rate_bps = std::isfinite(cap_bps) ? cap_bps : 0.0;
    return h;
  }
  f.rate_bps = 0.0;
  join_group(h);
  return h;
}

inline void ClassIncrementalMaxMin::remove_flow(Handle h) {
  Flow& f = flows_[h];
  HPN_CHECK_MSG(f.alive, "remove_flow on dead handle");
  leave_group(h, /*count_demotion=*/false);
  f.path = PathTable::kEmpty;
  f.alive = false;
  f.rate_bps = 0.0;
  --alive_count_;
  free_handles_.push_back(h);
}

inline void ClassIncrementalMaxMin::set_path(Handle h, PathId path) {
  Flow& f = flows_[h];
  HPN_CHECK_MSG(f.alive, "set_path on dead handle");
  if (f.group != kNoGroup && groups_[f.group].path == path) {
    // Same interned path: membership is unchanged, but keep the per-flow
    // engine's contract of re-rating the touched component.
    mark_path_dirty(path);
    return;
  }
  leave_group(h, /*count_demotion=*/true);
  f.path = path;
  if (paths_.hops(path) == 0) {
    f.rate_bps = std::isfinite(f.cap_bps) ? f.cap_bps : 0.0;
    return;
  }
  f.rate_bps = 0.0;
  join_group(h);
}

inline void ClassIncrementalMaxMin::set_cap(Handle h, double cap_bps) {
  Flow& f = flows_[h];
  HPN_CHECK_MSG(f.alive, "set_cap on dead handle");
  if (f.group == kNoGroup) {
    f.cap_bps = cap_bps;
    f.rate_bps = std::isfinite(cap_bps) ? cap_bps : 0.0;
    return;
  }
  if (std::bit_cast<std::uint64_t>(cap_bps) == std::bit_cast<std::uint64_t>(f.cap_bps)) {
    // Identical cap bit-pattern: membership holds; re-rate the component
    // like the per-flow engine does.
    mark_path_dirty(groups_[f.group].path);
    return;
  }
  leave_group(h, /*count_demotion=*/true);
  f.cap_bps = cap_bps;
  join_group(h);
}

inline void ClassIncrementalMaxMin::notify_link_changed(LinkId link) { mark_dirty(link); }

inline std::size_t ClassIncrementalMaxMin::resolve() {
  affected_groups_.clear();
  if (scan_links_) {
    // Unknown links flipped: diff cached up/down state of every link that
    // carries at least one class (a flip on a flow-free link changes no
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

  // Closure of the conflict graph over the dirty seeds: every class on a
  // reached link joins, pulling in every link of its path. Classes outside
  // the closure share no link (transitively) with anything that changed,
  // so their max-min subproblem — and rate — is untouched.
  next_stamp();
  bfs_.clear();
  for (const LinkId l : dirty_) visit_link(l);
  dirty_.clear();
  for (std::size_t qi = 0; qi < bfs_.size(); ++qi) {
    const LinkId l = bfs_[qi];
    link_up_seen_[l.index()] = topo_->link(l).up ? 1 : 0;
    for (const std::uint32_t gid : link_groups_[l.index()]) {
      if (group_seen_[gid] == stamp_) continue;
      group_seen_[gid] = stamp_;
      affected_groups_.push_back(gid);
      for (const LinkId pl : paths_.links(groups_[gid].path)) visit_link(pl);
    }
  }
  if (affected_groups_.empty()) {
    stats_.last_affected = 0;
    return 0;
  }

  filler_.begin(affected_groups_.size());
  std::size_t rerated = 0;
  for (const std::uint32_t gid : affected_groups_) {
    const Group& g = groups_[gid];
    const std::vector<LinkId>& links = paths_.links(g.path);
    filler_.add_item(links.data(), links.size(), g.cap_bps,
                     static_cast<double>(g.members.size()));
    rerated += g.members.size();
  }
  filler_.run(*topo_);
  for (std::uint32_t i = 0; i < affected_groups_.size(); ++i) {
    groups_[affected_groups_[i]].rate_bps = filler_.rate(i);
  }

  ++stats_.resolves;
  stats_.flows_rerated += rerated;
  stats_.last_affected = rerated;
  return rerated;
}

inline double ClassIncrementalMaxMin::throughput_on(LinkId link) const {
  if (link.index() >= link_groups_.size()) return 0.0;
  double sum = 0.0;
  for (const std::uint32_t gid : link_groups_[link.index()]) {
    const Group& g = groups_[gid];
    sum += g.rate_bps * static_cast<double>(g.members.size());
  }
  return sum;
}

inline ClassIncrementalMaxMin::AggregationSnapshot ClassIncrementalMaxMin::aggregation() const {
  AggregationSnapshot s;
  std::vector<std::size_t> sizes;
  sizes.reserve(groups_.size());
  for (const Group& g : groups_) {
    if (g.members.empty()) continue;  // free-list entry
    sizes.push_back(g.members.size());
    s.flows += g.members.size();
    if (g.members.size() >= 2) ++s.multi_member;
    s.members_max = std::max(s.members_max, g.members.size());
  }
  s.macro_flows = sizes.size();
  if (!sizes.empty()) {
    const auto mid = sizes.begin() + static_cast<std::ptrdiff_t>(sizes.size() / 2);
    std::nth_element(sizes.begin(), mid, sizes.end());
    s.members_p50 = *mid;
  }
  return s;
}

inline void ClassIncrementalMaxMin::ensure_link(LinkId link) {
  const std::size_t idx = link.index();
  if (idx < link_groups_.size()) return;
  const std::size_t n = std::max(topo_->link_count(), idx + 1);
  link_groups_.resize(n);
  link_up_seen_.resize(n, 1);
  member_pos_.resize(n, std::numeric_limits<std::uint32_t>::max());
  link_seen_.resize(n, 0);
}

inline std::uint32_t ClassIncrementalMaxMin::new_group(PathId path, double cap_bps) {
  std::uint32_t gid;
  if (!free_groups_.empty()) {
    gid = free_groups_.back();
    free_groups_.pop_back();
  } else {
    gid = static_cast<std::uint32_t>(groups_.size());
    groups_.emplace_back();
    group_seen_.push_back(0);
  }
  Group& g = groups_[gid];
  g.path = path;
  g.cap_bps = cap_bps;
  g.rate_bps = 0.0;
  g.members.clear();
  attach_group(gid);
  return gid;
}

inline void ClassIncrementalMaxMin::attach_group(std::uint32_t gid) {
  for (const LinkId l : paths_.links(groups_[gid].path)) {
    ensure_link(l);
    const std::size_t idx = l.index();
    if (link_groups_[idx].empty()) {
      member_pos_[idx] = static_cast<std::uint32_t>(member_links_.size());
      member_links_.push_back(l);
      link_up_seen_[idx] = topo_->link(l).up ? 1 : 0;
    }
    link_groups_[idx].push_back(gid);
  }
}

inline void ClassIncrementalMaxMin::detach_group(std::uint32_t gid) {
  for (const LinkId l : paths_.links(groups_[gid].path)) {
    const std::size_t idx = l.index();
    auto& members = link_groups_[idx];
    const auto it = std::find(members.begin(), members.end(), gid);
    HPN_CHECK_MSG(it != members.end(), "class missing from link membership");
    *it = members.back();
    members.pop_back();
    if (members.empty()) {
      // Swap-erase this link out of the member list.
      const std::uint32_t pos = member_pos_[idx];
      const LinkId moved = member_links_.back();
      member_links_[pos] = moved;
      member_pos_[moved.index()] = pos;
      member_links_.pop_back();
      member_pos_[idx] = std::numeric_limits<std::uint32_t>::max();
    }
  }
}

inline void ClassIncrementalMaxMin::join_group(Handle h) {
  Flow& f = flows_[h];
  std::uint32_t gid;
  if (mode_ == Aggregation::kMacroFlows) {
    const auto [it, inserted] = group_index_.try_emplace(key_of(f.path, f.cap_bps), 0u);
    if (inserted) it->second = new_group(f.path, f.cap_bps);
    gid = it->second;
  } else {
    gid = new_group(f.path, f.cap_bps);
  }
  Group& g = groups_[gid];
  f.group = gid;
  f.member_pos = static_cast<std::uint32_t>(g.members.size());
  g.members.push_back(h);
  if (g.members.size() == 2) ++stats_.macros_formed;
  mark_path_dirty(g.path);
}

inline void ClassIncrementalMaxMin::leave_group(Handle h, bool count_demotion) {
  Flow& f = flows_[h];
  const std::uint32_t gid = f.group;
  if (gid == kNoGroup) return;  // host-local: never grouped
  Group& g = groups_[gid];
  if (count_demotion && g.members.size() >= 2) ++stats_.demotions;
  const Handle moved = g.members.back();
  g.members[f.member_pos] = moved;
  flows_[moved].member_pos = f.member_pos;
  g.members.pop_back();
  f.group = kNoGroup;
  mark_path_dirty(g.path);
  if (g.members.empty()) {
    if (mode_ == Aggregation::kMacroFlows) {
      group_index_.erase(key_of(g.path, g.cap_bps));
    }
    detach_group(gid);
    g.path = PathId::invalid();
    free_groups_.push_back(gid);
  }
}

inline void ClassIncrementalMaxMin::mark_dirty(LinkId link) {
  ensure_link(link);
  dirty_.push_back(link);
}

inline void ClassIncrementalMaxMin::mark_path_dirty(PathId path) {
  for (const LinkId l : paths_.links(path)) mark_dirty(l);
}

inline void ClassIncrementalMaxMin::next_stamp() {
  if (++stamp_ == 0) {
    std::fill(link_seen_.begin(), link_seen_.end(), 0u);
    std::fill(group_seen_.begin(), group_seen_.end(), 0u);
    stamp_ = 1;
  }
}

inline void ClassIncrementalMaxMin::visit_link(LinkId link) {
  ensure_link(link);
  const std::size_t idx = link.index();
  if (link_seen_[idx] == stamp_) return;
  link_seen_[idx] = stamp_;
  bfs_.push_back(link);
}


class ClassFlowSession {
 public:
  using CompletionFn = std::function<void(FlowId)>;

  /// One completed (or aborted) flow, for offline analysis/replay. The path
  /// is interned — resolve the link sequence via paths().
  struct FlowRecord {
    FlowId id;
    TimePoint started;
    TimePoint finished;
    DataSize size;
    PathId path = PathId{0};
    std::uint32_t hops = 0;
    bool aborted = false;

    [[nodiscard]] Duration fct() const { return finished - started; }
    [[nodiscard]] Bandwidth average_rate() const { return size / fct(); }
  };

  ClassFlowSession(const topo::Topology& topology, sim::Simulator& simulator,
              Aggregation aggregation = Aggregation::kPerFlow);

  /// Starts a flow of `size` over `path`, source-capped at `cap`.
  /// `on_complete` fires when the last bit is delivered (it may start new
  /// flows). Zero-size flows complete at the current instant. Callers that
  /// reuse paths (collectives) should intern once via paths() and use the
  /// PathId overload.
  FlowId start_flow(const std::vector<LinkId>& path, DataSize size, Bandwidth cap,
                    CompletionFn on_complete = nullptr);
  FlowId start_flow(PathId path, DataSize size, Bandwidth cap,
                    CompletionFn on_complete = nullptr);

  /// Remove a flow before completion (no callback). Returns false if the
  /// flow already finished.
  bool abort_flow(FlowId id);

  /// Replace an in-flight flow's path (the §4 port failover: shared QP
  /// contexts let the NIC move a flow to its other port transparently).
  /// Returns false if the flow already finished.
  bool reroute_flow(FlowId id, const std::vector<LinkId>& new_path);
  bool reroute_flow(FlowId id, PathId new_path);

  /// Re-solve rates — call after link state changed (a flow whose path has
  /// a down link stalls at rate zero until rerouted or repaired). Only the
  /// components touching flipped links are re-solved.
  void refresh() {
    solver_.notify_topology_changed();
    schedule_recompute();
  }

  [[nodiscard]] std::size_t active_flows() const { return handle_of_.size(); }

  /// Allocated rate as of the last recompute; nullopt if not active.
  [[nodiscard]] std::optional<Bandwidth> rate_of(FlowId id) const;

  /// Bits still to deliver; nullopt if not active.
  [[nodiscard]] std::optional<DataSize> remaining_of(FlowId id) const;

  /// Aggregate allocated rate over a link, one term per path occurrence —
  /// O(classes on the link).
  [[nodiscard]] Bandwidth throughput_on(LinkId link) const;

  /// Bits delivered: every completed flow's size, the bits aborted flows
  /// had delivered before their abort, and each in-flight flow's served
  /// bits (clamped at its size). O(active flows).
  [[nodiscard]] DataSize delivered_total() const;

  /// Work the session did: what each event cost, independent of host speed.
  struct Stats {
    std::uint64_t recomputes = 0;       ///< batched drain + re-rate passes
    std::uint64_t classes_rerated = 0;  ///< classes a resolve moved to a new rate
    std::uint64_t heap_updates = 0;     ///< completion-heap inserts, erases, re-keys
    std::uint64_t completions = 0;      ///< flows drained (callbacks fired)
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Incremental-solver counters (how much re-solving each change cost).
  [[nodiscard]] const ClassIncrementalMaxMin::Stats& solver_stats() const {
    return solver_.stats();
  }

  /// Point-in-time macro-flow aggregation shape of the active flow set.
  [[nodiscard]] ClassIncrementalMaxMin::AggregationSnapshot solver_aggregation() const {
    return solver_.aggregation();
  }

  /// The solver's path interner (intern once, start many flows by PathId).
  [[nodiscard]] PathTable& paths() { return solver_.paths(); }
  [[nodiscard]] const PathTable& paths() const { return solver_.paths(); }

  /// Record every flow's start/finish/path for offline analysis. Off by
  /// default (collectives create millions of flows in long runs).
  void enable_tracing(bool on) { tracing_ = on; }
  [[nodiscard]] const std::vector<FlowRecord>& trace() const { return trace_; }
  /// Write the trace as CSV (id,start_s,finish_s,fct_s,bytes,hops,aborted).
  void write_trace_csv(std::ostream& os) const;

 private:
  using Handle = ClassIncrementalMaxMin::Handle;
  static constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

  /// One active flow, indexed by its solver Handle (id == 0: free slot).
  struct Slot {
    FlowId id{0};
    std::uint32_t cls = kNone;  ///< session class
    std::uint32_t pos = 0;      ///< index in the class's member heap
    bool stalled = false;       ///< rate hit zero while bits remain (down link)
    double tag = 0.0;           ///< bits to deliver + class clock at join
    TimePoint started;
    DataSize size;
    CompletionFn on_complete;
  };

  /// Slots and classes grow in fixed 1024-entry chunks: growth never
  /// copies or frees a large block, and the chunks a destroyed session
  /// releases are the size the next session asks for, so long-lived
  /// processes that rebuild sessions do not fragment the heap.
  template <class T>
  class Chunked {
   public:
    [[nodiscard]] std::size_t size() const { return size_; }
    T& operator[](std::size_t i) { return chunks_[i >> kShift][i & kMask]; }
    const T& operator[](std::size_t i) const { return chunks_[i >> kShift][i & kMask]; }
    void resize(std::size_t n) {
      while (chunks_.size() << kShift < n) chunks_.push_back(std::make_unique<T[]>(kChunk));
      size_ = std::max(size_, n);
    }

   private:
    static constexpr std::size_t kShift = 10;
    static constexpr std::size_t kChunk = std::size_t{1} << kShift;
    static constexpr std::size_t kMask = kChunk - 1;
    std::vector<std::unique_ptr<T[]>> chunks_;
    std::size_t size_ = 0;
  };

  /// FlowId -> Handle for the active flows: open addressing with linear
  /// probing and backward-shift erase, so no entry allocates.
  class IdIndex {
   public:
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }
    /// kNone when `id` is not active.
    [[nodiscard]] Handle find(FlowId id) const;
    void insert(FlowId id, Handle h);
    void erase(FlowId id);

   private:
    struct Entry {
      FlowId::underlying id = 0;  ///< 0: empty (FlowIds start at 1)
      Handle h = 0;
    };
    [[nodiscard]] std::size_t home(FlowId::underlying id) const;
    std::vector<Entry> table_;
    std::size_t size_ = 0;
  };

  /// A class's members: a min-heap on (tag, id) whose first entry is
  /// stored inline, so the common one-flow class allocates nothing.
  class Members {
   public:
    [[nodiscard]] std::uint32_t size() const { return n_; }
    [[nodiscard]] bool empty() const { return n_ == 0; }
    [[nodiscard]] Handle front() const { return first_; }
    [[nodiscard]] Handle back() const { return (*this)[n_ - 1]; }
    Handle& operator[](std::uint32_t i) { return i == 0 ? first_ : rest_[i - 1]; }
    Handle operator[](std::uint32_t i) const { return i == 0 ? first_ : rest_[i - 1]; }
    void push_back(Handle h) {
      if (n_++ == 0) {
        first_ = h;
      } else {
        rest_.push_back(h);
      }
    }
    void pop_back() {
      if (--n_ > 0) rest_.pop_back();
    }
    void clear() {
      n_ = 0;
      rest_.clear();
    }

   private:
    Handle first_ = 0;
    std::uint32_t n_ = 0;
    std::vector<Handle> rest_;
  };

  /// One solver class (or one host-local flow) with its service clock.
  struct Class {
    std::uint32_t group = ClassIncrementalMaxMin::kNoClass;  ///< solver class
    std::uint32_t heap_pos = kNone;  ///< index in heap_
    std::uint32_t stalled = 0;       ///< members with Slot::stalled set
    double clock = 0.0;              ///< per-member bits served, as of `at`
    double rate = 0.0;               ///< per-member rate since `at`
    TimePoint at;
    Members members;
  };

  /// Completion-heap entry: the instant (s) a class's smallest tag drains
  /// (inf while stalled), kept inline so sifting never touches classes_.
  struct HeapEntry {
    double key;
    std::uint32_t cls;
    [[nodiscard]] bool operator<(const HeapEntry& o) const {
      return key != o.key ? key < o.key : cls < o.cls;
    }
  };

  [[nodiscard]] double clock_at(const Class& c, TimePoint now) const {
    return c.clock + c.rate * (now - c.at).as_seconds();
  }
  /// Lazily settled bits `h` still has to deliver (never negative).
  [[nodiscard]] double remaining(Handle h) const;

  /// Tag `h` with `bits` to go and add it to the class of its solver flow.
  void attach(Handle h, double bits);
  /// Take `h` out of its class, freeing the class if it empties.
  void detach(Handle h);
  /// Advance a class's clock to now and switch it to `rate`.
  void rerate(std::uint32_t cls, double rate);
  void rekey(std::uint32_t cls);
  void free_class(std::uint32_t cls);
  [[nodiscard]] bool member_less(Handle a, Handle b) const;
  void member_sift_up(Class& c, std::uint32_t i);
  void member_sift_down(Class& c, std::uint32_t i);
  void heap_sift_up(std::uint32_t i);
  void heap_sift_down(std::uint32_t i);

  void record_trace(Handle h, bool aborted);

  /// Rate/capacity/down-link/conservation checks plus the completion-heap
  /// and lazy-settle rules after a recompute. Only called when the
  /// simulator's InvariantAuditor is enabled; the audit state is valid if
  /// auditing was on before the first start_flow.
  void audit_allocation();
  /// Auditor on: eagerly settle the audit shadow (the per-flow remaining
  /// bits the lazy clocks must reproduce) and the conservation ledger.
  void settle_to_now();

  /// Recompute rates and (re)schedule the next completion event.
  void schedule_recompute();
  void recompute_and_reschedule();
  void reschedule_completion();

  const topo::Topology* topo_;
  sim::Simulator* sim_;
  ClassIncrementalMaxMin solver_;
  Chunked<Slot> slots_;
  IdIndex handle_of_;
  Chunked<Class> classes_;
  std::vector<std::uint32_t> free_classes_;
  std::vector<std::uint32_t> class_of_group_;  ///< solver class -> session class
  std::vector<HeapEntry> heap_;                ///< one entry per live class
  std::vector<std::uint32_t> touched_local_;   ///< host-local classes since last recompute
  FlowId::underlying next_id_ = 1;
  sim::EventId pending_recompute_ = sim::kInvalidEvent;
  sim::EventId pending_completion_ = sim::kInvalidEvent;
  std::uint32_t scheduled_class_ = kNone;  ///< heap minimum the event was set for
  double scheduled_key_ = 0.0;
  std::int64_t delivered_bits_ = 0;  ///< completed sizes + aborted flows' served bits
  bool tracing_ = false;
  std::vector<FlowRecord> trace_;
  Stats stats_;

  // Recompute scratch.
  std::vector<Handle> done_;
  struct StallEvent {
    FlowId id;
    bool stall;
    double bits;
  };
  std::vector<StallEvent> stall_events_;

  /// Auditor state: the eager shadow (remaining bits per Handle, settled at
  /// every event like the pre-lazy session) and the conservation ledger in
  /// exact doubles. Only accumulated while the auditor is enabled.
  std::vector<double> audit_shadow_;
  TimePoint last_settle_;
  double audit_injected_bits_ = 0.0;
  double audit_delivered_bits_ = 0.0;
  double audit_aborted_bits_ = 0.0;
};


namespace class_session {
inline constexpr double kBitEps = 1.0;  // flows within one bit of done are done
inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Bits a flow of `size` has served with `remaining` to go, clamped to
/// [0, size] and truncated to whole bits.
inline std::int64_t served_bits(DataSize size, double remaining) {
  const auto total = static_cast<double>(size.as_bits());
  return static_cast<std::int64_t>(std::clamp(total - remaining, 0.0, total));
}
}  // namespace class_session


inline ClassFlowSession::ClassFlowSession(const topo::Topology& topology, sim::Simulator& simulator,
                         Aggregation aggregation)
    : topo_{&topology},
      sim_{&simulator},
      solver_{topology, aggregation},
      last_settle_{simulator.now()} {}

inline FlowId ClassFlowSession::start_flow(const std::vector<LinkId>& path, DataSize size,
                               Bandwidth cap, CompletionFn on_complete) {
  return start_flow(solver_.paths().intern(path), size, cap, std::move(on_complete));
}

inline FlowId ClassFlowSession::start_flow(PathId path, DataSize size, Bandwidth cap,
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

inline void ClassFlowSession::record_trace(Handle h, bool aborted) {
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

inline void ClassFlowSession::write_trace_csv(std::ostream& os) const {
  os << "id,start_s,finish_s,fct_s,bytes,hops,aborted\n";
  for (const FlowRecord& r : trace_) {
    os << r.id.value() << ',' << r.started.as_seconds() << ',' << r.finished.as_seconds()
       << ',' << r.fct().as_seconds() << ',' << static_cast<std::int64_t>(r.size.as_bytes())
       << ',' << r.hops << ',' << (r.aborted ? 1 : 0) << "\n";
  }
}

inline bool ClassFlowSession::abort_flow(FlowId id) {
  settle_to_now();
  const Handle h = handle_of_.find(id);
  if (h == kNone) return false;
  Slot& s = slots_[h];
  const double rem = remaining(h);
  record_trace(h, /*aborted=*/true);
  sim_->trace(metrics::TraceEventKind::kFlowAbort, static_cast<std::uint32_t>(id.value()),
              metrics::kTraceNoId, rem);
  if (sim_->auditor().enabled()) audit_aborted_bits_ += audit_shadow_[h];
  delivered_bits_ += class_session::served_bits(s.size, rem);
  detach(h);
  solver_.remove_flow(h);
  s.id = FlowId{0};
  s.on_complete = nullptr;
  handle_of_.erase(id);
  schedule_recompute();
  return true;
}

inline bool ClassFlowSession::reroute_flow(FlowId id, const std::vector<LinkId>& new_path) {
  return reroute_flow(id, solver_.paths().intern(new_path));
}

inline bool ClassFlowSession::reroute_flow(FlowId id, PathId new_path) {
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

inline std::optional<Bandwidth> ClassFlowSession::rate_of(FlowId id) const {
  const Handle h = handle_of_.find(id);
  if (h == kNone) return std::nullopt;
  return Bandwidth::bits_per_sec(solver_.rate(h));
}

inline std::optional<DataSize> ClassFlowSession::remaining_of(FlowId id) const {
  const Handle h = handle_of_.find(id);
  if (h == kNone) return std::nullopt;
  return DataSize::bits(static_cast<std::int64_t>(remaining(h)));
}

inline Bandwidth ClassFlowSession::throughput_on(LinkId link) const {
  return Bandwidth::bits_per_sec(solver_.throughput_on(link));
}

inline DataSize ClassFlowSession::delivered_total() const {
  std::int64_t bits = delivered_bits_;
  for (Handle h = 0; h < slots_.size(); ++h) {
    if (slots_[h].id.value() != 0) bits += class_session::served_bits(slots_[h].size, remaining(h));
  }
  return DataSize::bits(bits);
}

inline double ClassFlowSession::remaining(Handle h) const {
  const Slot& s = slots_[h];
  return std::max(0.0, s.tag - clock_at(classes_[s.cls], sim_->now()));
}

// ---- FlowId index -----------------------------------------------------------

inline std::size_t ClassFlowSession::IdIndex::home(FlowId::underlying id) const {
  return static_cast<std::size_t>(id * 0x9E3779B97F4A7C15ULL) & (table_.size() - 1);
}

inline ClassFlowSession::Handle ClassFlowSession::IdIndex::find(FlowId id) const {
  if (table_.empty() || id.value() == 0) return kNone;
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = home(id.value());; i = (i + 1) & mask) {
    if (table_[i].id == id.value()) return table_[i].h;
    if (table_[i].id == 0) return kNone;
  }
}

inline void ClassFlowSession::IdIndex::insert(FlowId id, Handle h) {
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

inline void ClassFlowSession::IdIndex::erase(FlowId id) {
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

inline void ClassFlowSession::attach(Handle h, double bits) {
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
    if (group == ClassIncrementalMaxMin::kNoClass) {
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

inline void ClassFlowSession::detach(Handle h) {
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

inline void ClassFlowSession::free_class(std::uint32_t cls) {
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
  if (c.group != ClassIncrementalMaxMin::kNoClass) class_of_group_[c.group] = kNone;
  free_classes_.push_back(cls);
}

inline void ClassFlowSession::rerate(std::uint32_t cls, double rate) {
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

inline void ClassFlowSession::rekey(std::uint32_t cls) {
  Class& c = classes_[cls];
  const double rem = slots_[c.members.front()].tag - c.clock;
  double key;
  if (c.rate > 0.0) {
    key = c.at.as_seconds() + rem / c.rate;
  } else {
    key = rem <= class_session::kBitEps ? c.at.as_seconds() : class_session::kInf;
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

inline bool ClassFlowSession::member_less(Handle a, Handle b) const {
  const Slot& x = slots_[a];
  const Slot& y = slots_[b];
  if (x.tag != y.tag) return x.tag < y.tag;
  return x.id.value() < y.id.value();
}

inline void ClassFlowSession::member_sift_up(Class& c, std::uint32_t i) {
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

inline void ClassFlowSession::member_sift_down(Class& c, std::uint32_t i) {
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
inline void ClassFlowSession::heap_sift_up(std::uint32_t i) {
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

inline void ClassFlowSession::heap_sift_down(std::uint32_t i) {
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

inline void ClassFlowSession::settle_to_now() {
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

inline void ClassFlowSession::schedule_recompute() {
  if (pending_recompute_ != sim::kInvalidEvent) return;  // batch same-instant changes
  pending_recompute_ = sim_->schedule_now([this] {
    pending_recompute_ = sim::kInvalidEvent;
    recompute_and_reschedule();
  });
}

inline void ClassFlowSession::recompute_and_reschedule() {
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
    if (slots_[h].tag - clock_at(c, now) > class_session::kBitEps) break;
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
      if (c.group == ClassIncrementalMaxMin::kNoClass && !c.members.empty()) rerate(cls, c.rate);
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

inline void ClassFlowSession::reschedule_completion() {
  const std::uint32_t top = heap_.empty() ? kNone : heap_.front().cls;
  const double key = heap_.empty() ? class_session::kInf : heap_.front().key;
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

inline void ClassFlowSession::audit_allocation() {
  sim::InvariantAuditor& auditor = sim_->auditor();
  const TimePoint now = sim_->now();
  const double now_s = now.as_seconds();
  // Tolerances are relative: rates are doubles accumulated through the
  // incremental solver, so allow a part-per-million of slack.
  constexpr double kRelEps = 1e-6;

  double inflight_bits = 0.0;
  double brute_min = class_session::kInf;
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
                          : rem <= class_session::kBitEps   ? c.at.as_seconds()
                                             : class_session::kInf;
    brute_min = std::min(brute_min, finish);
  }

  const double heap_min = heap_.empty() ? class_session::kInf : heap_.front().key;
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

}  // namespace hpn::reference
