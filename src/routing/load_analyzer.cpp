#include "routing/load_analyzer.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace hpn::routing {

void LoadAnalyzer::run(const std::vector<FlowSpec>& flows) {
  loads_.clear();
  unroutable_ = 0;
  std::vector<LinkId> path;
  for (const FlowSpec& f : flows) {
    const bool valid = f.first_hop.is_valid()
                           ? router_->trace_via_into(f.first_hop, f.dst, f.tuple, path)
                           : router_->trace_into(f.src, f.dst, f.tuple, path);
    if (!valid) {
      ++unroutable_;
      continue;
    }
    for (const LinkId l : path) {
      LinkLoad& ll = loads_[l];
      ll.link = l;
      ll.load += f.weight;
      ll.flow_count += 1;
    }
  }
}

std::vector<LinkLoad> LoadAnalyzer::loads_on(topo::LinkKind link_kind,
                                             topo::NodeKind src_kind) const {
  const topo::Topology& t = router_->topology();
  std::vector<LinkLoad> out;
  for (const auto& [lid, ll] : loads_) {
    const topo::Link& l = t.link(lid);
    if (l.kind == link_kind && t.node(l.src).kind == src_kind) out.push_back(ll);
  }
  // loads_ iterates in hash-bucket order; the callers' float sums must not.
  std::sort(out.begin(), out.end(),
            [](const LinkLoad& a, const LinkLoad& b) { return a.link < b.link; });
  return out;
}

double LoadAnalyzer::max_load(const std::vector<LinkLoad>& loads) {
  double peak = 0.0;
  for (const LinkLoad& ll : loads) peak = std::max(peak, ll.load);
  return peak;
}

double LoadAnalyzer::effective_entropy(const std::vector<LinkLoad>& loads,
                                       std::size_t candidate_links) {
  HPN_CHECK(candidate_links > 1);
  double total = 0.0;
  for (const LinkLoad& ll : loads) total += ll.load;
  if (total == 0.0) return 0.0;
  double h = 0.0;
  for (const LinkLoad& ll : loads) {
    if (ll.load <= 0.0) continue;
    const double p = ll.load / total;
    h -= p * std::log(p);
  }
  return h / std::log(static_cast<double>(candidate_links));
}

}  // namespace hpn::routing
