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
  item_rate_.clear();
  item_fixed_.clear();
}

std::uint32_t WaterFiller::add_item(const LinkId* links, std::size_t hops,
                                    double cap_bps) {
  const auto i = static_cast<std::uint32_t>(item_cap_.size());
  path_links_.insert(path_links_.end(), links, links + hops);
  item_path_off_.push_back(static_cast<std::uint32_t>(path_links_.size()));
  item_cap_.push_back(cap_bps);
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
    active_.push_back(0.0);
    slot_count_.push_back(0);
  }
  remaining_[slot] = topo.link(link).capacity.as_bits_per_sec();
  active_[slot] = 0.0;
  slot_count_[slot] = 0;
  return slot;
}

void WaterFiller::fix(std::uint32_t i, double share, std::size_t& unfixed) {
  const double rate = std::min(share, item_cap_[i]);
  item_rate_[i] = rate;
  item_fixed_[i] = 1;
  --unfixed;
  const std::uint32_t pend = item_path_off_[i + 1];
  for (std::uint32_t k = item_path_off_[i]; k < pend; ++k) {
    const std::uint32_t slot = link_slot_[path_links_[k].index()];
    remaining_[slot] = std::max(0.0, remaining_[slot] - rate);
    active_[slot] -= 1.0;
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

  // Pass 1: classify items and register their link occurrences (per-slot
  // occurrence counts, for the shares and for the CSR below).
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
    for (std::uint32_t k = pbeg; k < pend; ++k) {
      const std::uint32_t slot = touch(topo, path_links_[k]);
      active_[slot] += 1.0;
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
    heap_.push_back(HeapEntry{remaining_[slot] / active_[slot], slot});
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
      if (active_[top.slot] <= 0.0) {
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
      if (active_[top.slot] <= 0.0) {
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

IncrementalMaxMin::Handle IncrementalMaxMin::add_flow(PathId path, double cap_bps) {
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
  f.path = path;
  f.cap_bps = cap_bps;
  f.alive = true;
  ++alive_count_;
  if (paths_.hops(path) == 0) {
    // Host-local transfers are only NIC/loopback-limited; rate them now.
    f.rate_bps = std::isfinite(cap_bps) ? cap_bps : 0.0;
    return h;
  }
  f.rate_bps = 0.0;
  attach(h);
  mark_path_dirty(path);
  return h;
}

void IncrementalMaxMin::remove_flow(Handle h) {
  Flow& f = flows_[h];
  HPN_CHECK_MSG(f.alive, "remove_flow on dead handle");
  if (paths_.hops(f.path) != 0) {
    detach(h);
    mark_path_dirty(f.path);
  }
  f.path = PathTable::kEmpty;
  f.alive = false;
  f.rate_bps = 0.0;
  --alive_count_;
  free_handles_.push_back(h);
}

void IncrementalMaxMin::set_path(Handle h, PathId path) {
  Flow& f = flows_[h];
  HPN_CHECK_MSG(f.alive, "set_path on dead handle");
  const bool was_network = paths_.hops(f.path) != 0;
  if (was_network && f.path == path) {
    // Same interned path: membership is unchanged; re-rate the component.
    mark_path_dirty(path);
    return;
  }
  if (was_network) {
    detach(h);
    mark_path_dirty(f.path);
  }
  f.path = path;
  if (paths_.hops(path) == 0) {
    f.rate_bps = std::isfinite(f.cap_bps) ? f.cap_bps : 0.0;
    return;
  }
  f.rate_bps = 0.0;
  attach(h);
  mark_path_dirty(path);
}

void IncrementalMaxMin::notify_link_changed(LinkId link) { mark_dirty(link); }

std::size_t IncrementalMaxMin::resolve() {
  affected_.clear();
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

  // One connected component of the conflict graph per unvisited seed: every
  // flow on a reached link joins, pulling in every link of its path. Flows
  // outside the components share no link (transitively) with anything that
  // changed, so their max-min subproblem — and rate — is untouched. Each
  // component is an independent subproblem and is rated on its own.
  next_stamp();
  for (const LinkId seed : dirty_) {
    if (link_seen_[seed.index()] == stamp_) continue;
    const std::size_t first = affected_.size();
    bfs_.clear();
    visit_link(seed);
    for (std::size_t qi = 0; qi < bfs_.size(); ++qi) {
      const LinkId l = bfs_[qi];
      link_up_seen_[l.index()] = topo_->link(l).up ? 1 : 0;
      for (const Handle h : link_flows_[l.index()]) {
        if (flow_seen_[h] == stamp_) continue;
        flow_seen_[h] = stamp_;
        affected_.push_back(h);
        for (const LinkId pl : paths_.links(flows_[h].path)) visit_link(pl);
      }
    }
    rate_component(first);
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

void IncrementalMaxMin::rate_component(std::size_t first) {
  const std::size_t n = affected_.size() - first;
  if (n == 0) return;  // the seed lost its last flow before this resolve
  ++stats_.components;
  if (n == 1) {
    ++stats_.closed_form;
    Flow& f = flows_[affected_[first]];
    f.rate_bps = closed_form_rate(f);
    return;
  }
  filler_.begin(n);
  for (std::size_t i = first; i < affected_.size(); ++i) {
    const Flow& f = flows_[affected_[i]];
    const std::vector<LinkId>& links = paths_.links(f.path);
    filler_.add_item(links.data(), links.size(), f.cap_bps);
  }
  filler_.run(*topo_);
  for (std::size_t i = first; i < affected_.size(); ++i) {
    flows_[affected_[i]].rate_bps = filler_.rate(static_cast<std::uint32_t>(i - first));
  }
}

double IncrementalMaxMin::closed_form_rate(const Flow& f) const {
  // WaterFiller::run on this one item, round for round: a down link stalls
  // it at 0; otherwise its only round's share is the tightest of its links'
  // capacity / occurrences and its cap, and it fixes at min(share, cap).
  const std::vector<LinkId>& links = paths_.links(f.path);
  for (const LinkId l : links) {
    if (!topo_->link(l).up) return 0.0;
  }
  double link_share = std::numeric_limits<double>::infinity();
  for (auto k = links.begin(); k != links.end(); ++k) {
    if (std::find(links.begin(), k, *k) != k) continue;  // counted at its first occurrence
    const auto occurrences = static_cast<double>(std::count(k, links.end(), *k));
    link_share =
        std::min(link_share, topo_->link(*k).capacity.as_bits_per_sec() / occurrences);
  }
  const double cap_share =
      std::isfinite(f.cap_bps) ? f.cap_bps : std::numeric_limits<double>::infinity();
  double share = std::min(link_share, cap_share);
  HPN_CHECK_MSG(std::isfinite(share), "water-filling found no finite bottleneck");
  share = std::max(share, 0.0);
  return std::min(share, f.cap_bps);
}

double IncrementalMaxMin::throughput_on(LinkId link) const {
  if (link.index() >= link_flows_.size()) return 0.0;
  double sum = 0.0;
  for (const Handle h : link_flows_[link.index()]) sum += flows_[h].rate_bps;
  return sum;
}

void IncrementalMaxMin::ensure_link(LinkId link) {
  const std::size_t idx = link.index();
  if (idx < link_flows_.size()) return;
  const std::size_t n = std::max(topo_->link_count(), idx + 1);
  link_flows_.resize(n);
  link_up_seen_.resize(n, 1);
  member_pos_.resize(n, std::numeric_limits<std::uint32_t>::max());
  link_seen_.resize(n, 0);
}

void IncrementalMaxMin::attach(Handle h) {
  ++network_count_;
  for (const LinkId l : paths_.links(flows_[h].path)) {
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

void IncrementalMaxMin::detach(Handle h) {
  --network_count_;
  for (const LinkId l : paths_.links(flows_[h].path)) {
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
      member_pos_[idx] = std::numeric_limits<std::uint32_t>::max();
    }
  }
}

void IncrementalMaxMin::mark_dirty(LinkId link) {
  // A link no flow crosses bounds no rate: it is never a seed.
  const std::size_t idx = link.index();
  if (idx < link_flows_.size() && !link_flows_[idx].empty()) dirty_.push_back(link);
}

void IncrementalMaxMin::mark_path_dirty(PathId path) {
  for (const LinkId l : paths_.links(path)) mark_dirty(l);
}

void IncrementalMaxMin::next_stamp() {
  if (++stamp_ == 0) {
    std::fill(link_seen_.begin(), link_seen_.end(), 0u);
    std::fill(flow_seen_.begin(), flow_seen_.end(), 0u);
    stamp_ = 1;
  }
}

void IncrementalMaxMin::visit_link(LinkId link) {
  // Every link reached is a seed or on an attached path, so already sized.
  const std::size_t idx = link.index();
  if (link_seen_[idx] == stamp_) return;
  link_seen_[idx] = stamp_;
  bfs_.push_back(link);
}

}  // namespace hpn::flowsim
