#include "flowsim/maxmin.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace hpn::flowsim {

namespace detail {

namespace {
// Relative tolerance for "this item sits on the bottleneck": matches the
// seed solver so allocations agree rate for rate.
constexpr double kEps = 1e-6;
constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();
}  // namespace

void WaterFiller::begin(std::size_t item_hint) {
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

std::uint32_t WaterFiller::add_item(const LinkId* links, std::size_t hops,
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

void WaterFiller::heap_push(double share, std::uint32_t slot) {
  heap_.push_back(HeapEntry{share, slot});
  std::push_heap(heap_.begin(), heap_.end(),
                 [](const HeapEntry& a, const HeapEntry& b) { return a.share > b.share; });
}

void WaterFiller::heap_pop() {
  std::pop_heap(heap_.begin(), heap_.end(),
                [](const HeapEntry& a, const HeapEntry& b) { return a.share > b.share; });
  heap_.pop_back();
}

std::uint32_t WaterFiller::touch(const topo::Topology& topo, LinkId link) {
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

void WaterFiller::fix(std::uint32_t i, double share, std::size_t& unfixed) {
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

void WaterFiller::run(const topo::Topology& topo) {
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

}  // namespace detail

void MaxMinSolver::solve(std::vector<FlowDemand>& flows) {
  filler_.begin(flows.size());
  for (const FlowDemand& f : flows) {
    filler_.add_item(f.path.data(), f.path.size(), f.cap_bps, 1.0);
  }
  filler_.run(*topo_);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    flows[i].rate_bps = filler_.rate(static_cast<std::uint32_t>(i));
  }
}

IncrementalMaxMin::Handle IncrementalMaxMin::add_flow(PathId path, double cap_bps) {
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

void IncrementalMaxMin::remove_flow(Handle h) {
  Flow& f = flows_[h];
  HPN_CHECK_MSG(f.alive, "remove_flow on dead handle");
  leave_group(h, /*count_demotion=*/false);
  f.path = PathTable::kEmpty;
  f.alive = false;
  f.rate_bps = 0.0;
  --alive_count_;
  free_handles_.push_back(h);
}

void IncrementalMaxMin::set_path(Handle h, PathId path) {
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

void IncrementalMaxMin::set_cap(Handle h, double cap_bps) {
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

void IncrementalMaxMin::notify_link_changed(LinkId link) { mark_dirty(link); }

std::size_t IncrementalMaxMin::resolve() {
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

double IncrementalMaxMin::throughput_on(LinkId link) const {
  if (link.index() >= link_groups_.size()) return 0.0;
  double sum = 0.0;
  for (const std::uint32_t gid : link_groups_[link.index()]) {
    const Group& g = groups_[gid];
    sum += g.rate_bps * static_cast<double>(g.members.size());
  }
  return sum;
}

IncrementalMaxMin::AggregationSnapshot IncrementalMaxMin::aggregation() const {
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

void IncrementalMaxMin::ensure_link(LinkId link) {
  const std::size_t idx = link.index();
  if (idx < link_groups_.size()) return;
  const std::size_t n = std::max(topo_->link_count(), idx + 1);
  link_groups_.resize(n);
  link_up_seen_.resize(n, 1);
  member_pos_.resize(n, std::numeric_limits<std::uint32_t>::max());
  link_seen_.resize(n, 0);
}

std::uint32_t IncrementalMaxMin::new_group(PathId path, double cap_bps) {
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

void IncrementalMaxMin::attach_group(std::uint32_t gid) {
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

void IncrementalMaxMin::detach_group(std::uint32_t gid) {
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

void IncrementalMaxMin::join_group(Handle h) {
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

void IncrementalMaxMin::leave_group(Handle h, bool count_demotion) {
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

void IncrementalMaxMin::mark_dirty(LinkId link) {
  ensure_link(link);
  dirty_.push_back(link);
}

void IncrementalMaxMin::mark_path_dirty(PathId path) {
  for (const LinkId l : paths_.links(path)) mark_dirty(l);
}

void IncrementalMaxMin::next_stamp() {
  if (++stamp_ == 0) {
    std::fill(link_seen_.begin(), link_seen_.end(), 0u);
    std::fill(group_seen_.begin(), group_seen_.end(), 0u);
    stamp_ = 1;
  }
}

void IncrementalMaxMin::visit_link(LinkId link) {
  ensure_link(link);
  const std::size_t idx = link.index();
  if (link_seen_[idx] == stamp_) return;
  link_seen_[idx] = stamp_;
  bfs_.push_back(link);
}

}  // namespace hpn::flowsim
