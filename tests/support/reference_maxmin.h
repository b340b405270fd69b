// Test-only oracle: the seed water-filling implementation, kept verbatim so
// the rewritten dense/incremental solver can be differentially tested
// against the exact allocation semantics every experiment was validated
// with. Deliberately naive — O(rounds x (links + flows x path_len)) with a
// per-solve hash map — do not use outside tests/benches.
//
// FlowDemand is its input type. cold_solve() rates the same input through
// the production engine — a fresh IncrementalMaxMin with every flow added
// and one resolve() — so the two answers compare flow for flow.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "flowsim/maxmin.h"
#include "topo/topology.h"

namespace hpn::flowsim {

struct FlowDemand {
  std::vector<LinkId> path;
  /// Per-flow rate cap (e.g. 200G for one NIC port); infinite by default.
  double cap_bps = std::numeric_limits<double>::infinity();
  /// Output: allocated rate.
  double rate_bps = 0.0;
};

/// Fills `rate_bps` for every flow through a fresh IncrementalMaxMin: add
/// every flow, one resolve(). Flows with empty paths get cap_bps.
inline void cold_solve(const topo::Topology& topology, std::vector<FlowDemand>& flows) {
  IncrementalMaxMin engine{topology};
  std::vector<IncrementalMaxMin::Handle> handles;
  handles.reserve(flows.size());
  for (const FlowDemand& f : flows) handles.push_back(engine.add_flow(f.path, f.cap_bps));
  engine.resolve();
  for (std::size_t i = 0; i < flows.size(); ++i) flows[i].rate_bps = engine.rate(handles[i]);
}

class ReferenceMaxMinSolver {
 public:
  explicit ReferenceMaxMinSolver(const topo::Topology& topology) : topo_{&topology} {}

  void solve(std::vector<FlowDemand>& flows) const {
    struct LinkState {
      double remaining = 0.0;
      int active = 0;
    };
    std::unordered_map<LinkId, LinkState> links;
    links.reserve(flows.size() * 4);

    std::vector<bool> fixed(flows.size(), false);
    std::size_t unfixed = 0;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      FlowDemand& f = flows[i];
      f.rate_bps = 0.0;
      if (f.path.empty()) {
        f.rate_bps = std::isfinite(f.cap_bps) ? f.cap_bps : 0.0;
        fixed[i] = true;
        continue;
      }
      // A flow whose path crosses a down link is stalled at rate 0 (RDMA
      // retransmits into a black hole until the path is repaired/rerouted).
      bool stalled = false;
      for (const LinkId l : f.path) stalled |= !topo_->link(l).up;
      if (stalled) {
        fixed[i] = true;
        continue;
      }
      ++unfixed;
      for (const LinkId l : f.path) {
        auto [it, inserted] = links.try_emplace(l);
        if (inserted) it->second.remaining = topo_->link(l).capacity.as_bits_per_sec();
        it->second.active += 1;
      }
    }

    constexpr double kEps = 1e-6;
    while (unfixed > 0) {
      // Bottleneck fair share: tightest link share, or tightest flow cap.
      double share = std::numeric_limits<double>::infinity();
      for (const auto& [lid, st] : links) {
        if (st.active > 0) share = std::min(share, st.remaining / st.active);
      }
      for (std::size_t i = 0; i < flows.size(); ++i) {
        if (!fixed[i]) share = std::min(share, flows[i].cap_bps);
      }
      HPN_CHECK_MSG(std::isfinite(share), "water-filling found no finite bottleneck");
      share = std::max(share, 0.0);

      // Fix every flow that is on a bottleneck link or capped at `share`.
      bool any_fixed = false;
      for (std::size_t i = 0; i < flows.size(); ++i) {
        if (fixed[i]) continue;
        FlowDemand& f = flows[i];
        bool bottlenecked = f.cap_bps <= share * (1.0 + kEps);
        if (!bottlenecked) {
          for (const LinkId l : f.path) {
            const LinkState& st = links.at(l);
            if (st.remaining / st.active <= share * (1.0 + kEps)) {
              bottlenecked = true;
              break;
            }
          }
        }
        if (!bottlenecked) continue;
        f.rate_bps = std::min(share, f.cap_bps);
        fixed[i] = true;
        any_fixed = true;
        --unfixed;
        for (const LinkId l : f.path) {
          LinkState& st = links.at(l);
          st.remaining = std::max(0.0, st.remaining - f.rate_bps);
          st.active -= 1;
        }
      }
      HPN_CHECK_MSG(any_fixed, "water-filling made no progress");
    }
  }

 private:
  const topo::Topology* topo_;
};

}  // namespace hpn::flowsim
