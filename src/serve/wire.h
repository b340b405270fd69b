// Binary forms for the serve daemon: the canonical scenario encoding and
// the evaluated-query record.
//
// encode_scenario writes a parsed scenario as little-endian bytes behind a
// 4-byte magic and a u16 format version; doubles go in as their bit
// patterns (bit_cast, never text). Parsing has already erased every
// formatting difference, so equal scenarios encode to equal bytes, and the
// serve caches key on a hash of these bytes (the `base=` field of every
// reply). Nothing decodes them: the result cache holds QueryResult values.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/scenario.h"

namespace hpn::serve {

/// One evaluated query: per-flow steady-state rates (base flows in
/// materialization order, then any add-job probe flows), optional
/// time-domain FCTs (the `run` verb), and the summary the reply footer
/// prints. Stalled = allocated zero rate (a down link on the flow's path,
/// or an unroutable probe); an incomplete FCT entry is a flow still
/// unfinished at drain time.
struct QueryResult {
  struct Flow {
    double gbps = 0.0;
    [[nodiscard]] bool stalled() const { return gbps <= 0.0; }
    bool operator==(const Flow&) const = default;
  };
  struct Fct {
    double seconds = -1.0;  ///< Negative = still unfinished at drain time.
    [[nodiscard]] bool completed() const { return seconds >= 0.0; }
    bool operator==(const Fct&) const = default;
  };
  std::vector<Flow> base_flows;
  std::vector<Flow> job_flows;
  std::vector<Fct> fcts;
  std::uint32_t stalled = 0;    ///< across base + job flows
  double total_gbps = 0.0;      ///< sum across base + job flows
  double min_gbps = 0.0;        ///< min across non-stalled flows (0 if none)

  bool operator==(const QueryResult&) const = default;
};

/// The canonical bytes of `s`: "HPNS", u16 version 1, then every field in
/// declaration order (flows, faults and jobs each behind a u32 count).
std::string encode_scenario(const fuzz::Scenario& s);

}  // namespace hpn::serve
