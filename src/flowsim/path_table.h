// Path interning: content-hash std::vector<LinkId> paths into dense PathIds.
//
// Collective traffic reuses a small set of link sequences: every step of a
// connection's ring, every channel and every pipeline chunk sends over the
// same path, so the same path is registered thousands of times. Interning
// makes "same path" an O(1) id compare (what FlowSession::reroute_flow and
// IncrementalMaxMin::set_path check), stores each distinct link sequence
// exactly once, and spares the per-flow vector copies that would otherwise
// ride along through FlowSession and the solver.
//
// The table is append-only: distinct paths are bounded by the topology's
// path diversity (ECMP fan-out x node pairs), not by flow count, so entries
// are never evicted and `links(id)` references stay valid for the table's
// lifetime. PathId{0} is always the empty path (host-local transfers).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ids.h"

namespace hpn::flowsim {

class PathTable {
 public:
  /// The empty path (host-local flows) is pre-interned as id 0.
  static constexpr PathId kEmpty{0};

  PathTable();

  /// Returns the id of `path`, inserting it on first sight.
  PathId intern(const std::vector<LinkId>& path) {
    return intern(path.data(), path.size());
  }
  PathId intern(const LinkId* links, std::size_t hops);

  /// The interned link sequence. Stable for the table's lifetime.
  [[nodiscard]] const std::vector<LinkId>& links(PathId id) const {
    return paths_[id.index()];
  }
  [[nodiscard]] std::size_t hops(PathId id) const { return paths_[id.index()].size(); }

  /// Distinct paths interned (including the empty path).
  [[nodiscard]] std::size_t size() const { return paths_.size(); }
  /// intern() calls that found an existing entry — the dedup payoff.
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t lookups() const { return lookups_; }

 private:
  [[nodiscard]] static std::uint64_t hash_path(const LinkId* links, std::size_t hops);
  void grow_table();

  std::vector<std::vector<LinkId>> paths_;  ///< PathId-indexed link sequences.
  std::vector<std::uint64_t> hashes_;       ///< PathId-indexed content hashes.

  // Open-addressed (linear probe) id set; slot 0-value means empty, else
  // PathId + 1. Power-of-two sized, rebuilt at ~70% load.
  std::vector<std::uint32_t> table_;
  std::uint64_t lookups_ = 0;
  std::uint64_t hits_ = 0;
};

}  // namespace hpn::flowsim
