// serve/wire.h scenario encoding: the bytes are pinned (their hash is the
// `base=` field of every reply and the key of both serve caches), and no
// two scenarios that differ in one field share an encoding.
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "serve/wire.h"

namespace hpn::serve {
namespace {

fuzz::Scenario sample_scenario() {
  fuzz::Scenario s;
  s.seed = 0xDEADBEEFCAFEF00Dull;
  s.topology = fuzz::TopologyKind::kHpnPod;
  s.size_knob = 16;
  s.wiring = 4;
  s.flows.push_back({0, 9, 1 << 20, 98.76543210123456});
  s.flows.push_back({3, 1, 0, 0.0030000000000000001});
  s.faults.push_back({fuzz::ScenarioFault::Kind::kLinkFlap, 1'000'000, 7, 500});
  s.faults.push_back({fuzz::ScenarioFault::Kind::kTorCrash, 0, 1, 0});
  s.jobs.push_back({2'000, 8, 3});
  return s;
}

TEST(Wire, ScenarioBytesArePinned) {
  const std::string bytes = encode_scenario(sample_scenario());
  // Header (magic, version 1, seed, topology, size, wiring, flow count),
  // 24 bytes per flow, 4 + 21 per fault, 4 + 16 per job.
  EXPECT_EQ(bytes.size(), 27u + 2 * 24 + 4 + 2 * 21 + 4 + 16);
  EXPECT_EQ(bytes.substr(0, 6), std::string("HPNS\x01\x00", 6));
  EXPECT_EQ(fuzz::fnv1a64(bytes), 0xe500e48ebf791ddbull);
  EXPECT_EQ(encode_scenario(sample_scenario()), bytes);
}

TEST(Wire, EveryFieldChangesTheBytes) {
  using Edit = std::function<void(fuzz::Scenario&)>;
  const std::vector<std::pair<const char*, Edit>> edits = {
      {"seed", [](fuzz::Scenario& s) { s.seed ^= 1; }},
      {"topology", [](fuzz::Scenario& s) { s.topology = fuzz::TopologyKind::kTinyClos; }},
      {"size", [](fuzz::Scenario& s) { ++s.size_knob; }},
      {"wiring", [](fuzz::Scenario& s) { ++s.wiring; }},
      {"flow src", [](fuzz::Scenario& s) { ++s.flows[1].src; }},
      {"flow dst", [](fuzz::Scenario& s) { ++s.flows[1].dst; }},
      {"flow size", [](fuzz::Scenario& s) { ++s.flows[1].size_bytes; }},
      {"flow cap",
       [](fuzz::Scenario& s) { s.flows[1].cap_gbps = std::nextafter(s.flows[1].cap_gbps, 1.0); }},
      {"flow count", [](fuzz::Scenario& s) { s.flows.pop_back(); }},
      {"fault kind",
       [](fuzz::Scenario& s) { s.faults[0].kind = fuzz::ScenarioFault::Kind::kLinkFail; }},
      {"fault at", [](fuzz::Scenario& s) { ++s.faults[1].at_ns; }},
      {"fault target", [](fuzz::Scenario& s) { ++s.faults[1].target; }},
      {"fault down_for", [](fuzz::Scenario& s) { ++s.faults[1].down_for_ns; }},
      {"fault count", [](fuzz::Scenario& s) { s.faults.pop_back(); }},
      {"job arrival", [](fuzz::Scenario& s) { ++s.jobs[0].arrival_ns; }},
      {"job hosts", [](fuzz::Scenario& s) { ++s.jobs[0].hosts; }},
      {"job iters", [](fuzz::Scenario& s) { ++s.jobs[0].iters; }},
      {"job count", [](fuzz::Scenario& s) { s.jobs.clear(); }},
  };
  const fuzz::Scenario base = sample_scenario();
  const std::string base_bytes = encode_scenario(base);
  std::vector<std::string> seen{base_bytes};
  for (const auto& [field, edit] : edits) {
    fuzz::Scenario s = base;
    edit(s);
    ASSERT_NE(s, base) << field;
    const std::string bytes = encode_scenario(s);
    for (const std::string& other : seen) EXPECT_NE(bytes, other) << field;
    seen.push_back(bytes);
  }
}

}  // namespace
}  // namespace hpn::serve
