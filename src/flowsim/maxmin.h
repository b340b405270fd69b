// Max-min fair bandwidth allocation (progressive water-filling).
//
// Given flows with fixed paths and optional per-flow rate caps (the NIC
// limit), assigns each flow the max-min fair rate subject to every link's
// capacity. Per-flow caps are handled by treating each cap as a virtual
// single-flow link. This is the steady-state model behind all throughput
// benches (Figs 15-17, 19); queue *dynamics* live in fluid.h.
//
// One engine, IncrementalMaxMin, solves every run. It keeps flow/link state
// alive across calls: flow add/remove/reroute and link up/down flips mark
// the links that carry flows dirty; resolve() re-rates only the connected
// components of the flow-conflict graph (flows joined by shared links) that
// contain a dirty link. Untouched components provably keep their
// allocation, so a single access-link flip at Pod scale re-rates a handful
// of flows instead of re-solving 100K+ from zero. A cold solve is the first
// resolve() of a fresh engine with every flow added.
//
// Components are independent max-min subproblems, and resolve() rates each
// one on its own, so a flow's rate depends only on its own component, never
// on which other components happened to be dirty at the same time (no
// kEps coupling across components), and a re-solve gives what a cold solve
// of the same flow set gives. A component of one flow (most of a training fleet: NVLink
// hops and rail rings that share nothing) is rated in closed form — 0 on a
// down link, else min(cap, min over its distinct links of capacity /
// occurrences) — which is WaterFiller's arithmetic for that one item, bit
// for bit. Larger components run detail::WaterFiller on their own items.
//
// Every network flow is one water-filling item. The hot path keeps it cheap:
//
//  * Interned paths. Paths are interned into dense PathIds (PathTable), so
//    a flow stores 4 bytes of path and "same path" is an id compare.
//
//  * Struct-of-arrays kernel. Per-item state (cap/rate/fixed and a
//    flattened link-path CSR) lives in parallel arrays; the link->item
//    incidence is a CSR built once per run by count + prefix-sum + fill.
//    The fix-in-bulk inner loop walks contiguous index ranges instead of
//    chasing SolverItem/path pointers. The arithmetic is the per-flow
//    reference kernel's (tests/support/reference_incremental.h); the
//    differential suite holds the two engines to bit-equal rates.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "flowsim/path_table.h"
#include "topo/topology.h"

namespace hpn::flowsim {

namespace detail {

/// Struct-of-arrays progressive water-filling. Items are registered via
/// begin()/add_item() (flat parallel arrays: cap, rate, fixed, and a CSR
/// of path links); run() builds the link->item incidence CSR for the
/// touched links (epoch-stamped dense slots, reused across runs) and fixes
/// bottlenecked items in bulk. Semantics match the seed solver round for
/// round: each round's share is min(link remaining/active items, tightest
/// unfixed cap); every item on a link within kEps of that share (or capped
/// within kEps) fixes at min(share, cap), draining its rate from each link
/// occurrence on its path.
class WaterFiller {
 public:
  /// Start a new item batch (clears previous items, keeps link scratch).
  void begin(std::size_t item_hint);

  /// Register one item. `links` may contain duplicates (multigraph walks):
  /// each occurrence drains the link separately.
  std::uint32_t add_item(const LinkId* links, std::size_t hops, double cap_bps);

  /// Rate every item. Down links stall their items at 0.
  void run(const topo::Topology& topo);

  /// Allocated rate of item `i` (valid after run()).
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
  std::vector<double> item_rate_;
  std::vector<std::uint8_t> item_fixed_;

  // LinkId-indexed: dense slot of each link, valid when stamp matches.
  std::vector<std::uint32_t> link_slot_;
  std::vector<std::uint32_t> link_stamp_;
  std::uint32_t stamp_ = 0;

  // Slot-indexed link state for the current run.
  std::vector<double> remaining_;
  std::vector<double> active_;  ///< unfixed item occurrences (exact in a double)
  std::size_t slots_used_ = 0;

  // Slot -> item incidence CSR, rebuilt per run (count, prefix-sum, fill).
  std::vector<std::uint32_t> slot_count_;
  std::vector<std::uint32_t> slot_items_off_;
  std::vector<std::uint32_t> slot_items_;

  std::vector<HeapEntry> heap_;          ///< lazy min-heap on share
  std::vector<std::uint32_t> cap_order_; ///< finite-cap items, cap ascending
};

}  // namespace detail

/// Persistent max-min state with component-scoped incremental re-solve.
///
/// Rates are valid after resolve() and stay valid until the flow set or
/// link states change again. Link up/down flips are discovered either
/// via notify_link_changed (targeted) or notify_topology_changed (an
/// unknown set flipped: resolve() diffs the cached up/down state of every
/// link that carries flows — O(active links), no topology scan).
class IncrementalMaxMin {
 public:
  using Handle = std::uint32_t;
  static constexpr Handle kInvalidHandle = std::numeric_limits<Handle>::max();

  explicit IncrementalMaxMin(const topo::Topology& topology) : topo_{&topology} {}

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

  /// A specific link flipped up/down.
  void notify_link_changed(LinkId link);
  /// Some unknown set of links flipped; next resolve() diffs cached state.
  void notify_topology_changed() { scan_links_ = true; }

  /// Re-solves every dirty component. Returns the number of flows re-rated
  /// (0 when nothing changed — untouched components keep their rates).
  std::size_t resolve();

  /// Network flows the last resolve() re-rated (empty if it re-rated none).
  /// Valid until the next add/remove/set_path.
  [[nodiscard]] const std::vector<Handle>& rerated() const { return affected_; }

  [[nodiscard]] double rate(Handle h) const { return flows_[h].rate_bps; }
  [[nodiscard]] double cap(Handle h) const { return flows_[h].cap_bps; }
  [[nodiscard]] const std::vector<LinkId>& path(Handle h) const {
    return paths_.links(flows_[h].path);
  }
  [[nodiscard]] PathId path_id(Handle h) const { return flows_[h].path; }
  [[nodiscard]] std::size_t flow_count() const { return alive_count_; }
  /// Live flows with a non-empty path: the items water-filling sees.
  [[nodiscard]] std::size_t network_flow_count() const { return network_count_; }

  /// The interner shared by every path this engine has seen. Callers that
  /// send the same path repeatedly (collectives) intern once and pass the
  /// PathId overloads to skip the per-flow vector hashing entirely.
  [[nodiscard]] PathTable& paths() { return paths_; }
  [[nodiscard]] const PathTable& paths() const { return paths_; }

  /// Aggregate allocated rate over one link — O(flows on that link).
  [[nodiscard]] double throughput_on(LinkId link) const;

  struct Stats {
    std::uint64_t resolves = 0;       ///< resolve() calls that re-rated flows
    std::uint64_t flows_rerated = 0;  ///< cumulative flows re-rated
    std::uint64_t components = 0;     ///< conflict components rated
    std::uint64_t closed_form = 0;    ///< ...of which one flow, rated in closed form
    std::uint64_t link_flips = 0;     ///< up/down transitions observed
    std::size_t last_affected = 0;    ///< flows re-rated by the last resolve
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Flow {
    PathId path = PathTable::kEmpty;
    double cap_bps = 0.0;
    double rate_bps = 0.0;
    bool alive = false;
  };

  /// Grow LinkId-indexed arrays to cover `link`.
  void ensure_link(LinkId link);
  /// Add `h` to (remove it from) the membership list of every link on its path.
  void attach(Handle h);
  void detach(Handle h);
  /// Seed the next resolve() at `link` unless no flow crosses it.
  void mark_dirty(LinkId link);
  void mark_path_dirty(PathId path);
  void next_stamp();
  void visit_link(LinkId link);
  /// Rate the component affected_[first..] that resolve() just collected.
  void rate_component(std::size_t first);
  /// The rate WaterFiller gives `f` when it is alone in its component.
  [[nodiscard]] double closed_form_rate(const Flow& f) const;

  const topo::Topology* topo_;
  PathTable paths_;
  std::vector<Flow> flows_;
  std::vector<Handle> free_handles_;
  std::size_t alive_count_ = 0;
  std::size_t network_count_ = 0;

  // LinkId-indexed membership (flow handles, one entry per path occurrence)
  // and cached up/down state.
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
  detail::WaterFiller filler_;
  Stats stats_;
};

}  // namespace hpn::flowsim
