#include "tests/fuzz/generator.h"

#include <algorithm>
#include <bit>

#include "common/rng.h"

namespace hpn::fuzz {

namespace {

int topology_rank(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kTinyClos: return 0;
    case TopologyKind::kFatTree: return 1;
    case TopologyKind::kDcnPlus: return 2;
    case TopologyKind::kHpnSegment: return 3;
    case TopologyKind::kRailOnly: return 4;
    case TopologyKind::kRailX: return 5;
    case TopologyKind::kUbMesh: return 6;
    case TopologyKind::kRandom: return 7;
    case TopologyKind::kHpnPod: return 8;
  }
  return 0;
}

}  // namespace

Scenario random_scenario(std::uint64_t seed) {
  Rng rng{seed};
  Scenario s;
  s.seed = seed;

  const double pick = rng.uniform_real();
  if (pick < 0.40) {
    s.topology = TopologyKind::kRandom;
    s.size_knob = static_cast<std::uint32_t>(rng.uniform_int(4, 14));
    s.wiring = static_cast<std::uint32_t>(rng.uniform_int(0, 2 * s.size_knob));
  } else if (pick < 0.58) {
    s.topology = TopologyKind::kTinyClos;
    s.size_knob = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
    s.wiring = static_cast<std::uint32_t>(rng.uniform_int(1, 2));
  } else if (pick < 0.74) {
    s.topology = TopologyKind::kHpnSegment;
    s.size_knob = static_cast<std::uint32_t>(rng.uniform_int(1, 3));
    s.wiring = 0;
  } else if (pick < 0.82) {
    s.topology = TopologyKind::kDcnPlus;
    s.size_knob = static_cast<std::uint32_t>(rng.uniform_int(1, 2));
    s.wiring = 0;
  } else if (pick < 0.88) {
    s.topology = TopologyKind::kFatTree;
    s.size_knob = 4;
    s.wiring = 0;
  } else if (pick < 0.92) {
    s.topology = TopologyKind::kRailOnly;
    s.size_knob = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
    s.wiring = 0;
  } else if (pick < 0.96) {
    s.topology = TopologyKind::kRailX;
    s.size_knob = static_cast<std::uint32_t>(rng.uniform_int(1, 2));
    s.wiring = static_cast<std::uint32_t>(rng.uniform_int(2, 5));
  } else {
    s.topology = TopologyKind::kUbMesh;
    s.size_knob = static_cast<std::uint32_t>(rng.uniform_int(1, 3));
    s.wiring = 0;
  }

  static constexpr std::int64_t kSizePalette[] = {2'048, 65'536, 262'144, 1'048'576};
  static constexpr double kCapPalette[] = {25.0, 50.0, 100.0, 200.0};
  const int flow_count = static_cast<int>(rng.uniform_int(2, 10));
  for (int i = 0; i < flow_count; ++i) {
    ScenarioFlow f;
    f.src = static_cast<std::uint32_t>(rng.next_u64() & 0xFFFFu);
    f.dst = static_cast<std::uint32_t>(rng.next_u64() & 0xFFFFu);
    f.size_bytes = rng.bernoulli(0.7) ? kSizePalette[rng.uniform_index(4)]
                                      : rng.uniform_int(1'024, 2'097'152);
    f.cap_gbps = rng.bernoulli(0.7) ? kCapPalette[rng.uniform_index(4)]
                                    : rng.uniform_real(5.0, 300.0);
    s.flows.push_back(f);
  }

  if (rng.bernoulli(0.45)) {
    const int fault_count = static_cast<int>(rng.uniform_int(1, 3));
    for (int i = 0; i < fault_count; ++i) {
      ScenarioFault f;
      const double kind = rng.uniform_real();
      f.kind = kind < 0.45   ? ScenarioFault::Kind::kLinkFail
               : kind < 0.85 ? ScenarioFault::Kind::kLinkFlap
                             : ScenarioFault::Kind::kTorCrash;
      f.at_ns = rng.uniform_int(0, 3'000'000);  // within the first 3 ms
      f.target = static_cast<std::uint32_t>(rng.next_u64() & 0xFFFFu);
      if (f.kind == ScenarioFault::Kind::kLinkFlap) {
        f.down_for_ns = rng.uniform_int(50'000, 1'000'000);
      } else if (f.kind == ScenarioFault::Kind::kLinkFail && rng.bernoulli(0.5)) {
        f.down_for_ns = rng.uniform_int(500'000, 3'000'000);
      } else if (f.kind == ScenarioFault::Kind::kTorCrash) {
        f.down_for_ns = rng.bernoulli(0.5) ? rng.uniform_int(1'000'000, 5'000'000) : 0;
      }
      s.faults.push_back(f);
    }
  }
  // Drawn AFTER every pre-existing field so adding the jobsmix phase left
  // all earlier sweeps' scenarios (and the committed corpus) bit-identical.
  if (rng.bernoulli(0.30)) ensure_jobs(s);
  return s;
}

void ensure_jobs(Scenario& scenario) {
  if (!scenario.jobs.empty()) return;
  Rng rng{scenario.seed ^ 0x0B5F2A6CD1E94B73ULL};
  const int count = static_cast<int>(rng.uniform_int(1, 4));
  for (int i = 0; i < count; ++i) {
    ScenarioJob j;
    j.arrival_ns = rng.uniform_int(0, 200'000'000);  // first 200 ms
    j.hosts = static_cast<std::uint32_t>(rng.uniform_int(1, 24));
    j.iters = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
    scenario.jobs.push_back(j);
  }
}

std::uint64_t scenario_weight(const Scenario& scenario) {
  std::uint64_t size_bits = 0;
  for (const ScenarioFlow& f : scenario.flows) {
    size_bits += std::bit_width(static_cast<std::uint64_t>(std::max<std::int64_t>(1, f.size_bytes)));
  }
  std::uint64_t w = size_bits;
  w += static_cast<std::uint64_t>(topology_rank(scenario.topology)) *
       std::uint64_t{1'000'000'000'000'000};
  w += scenario.flows.size() * std::uint64_t{1'000'000'000'000};
  w += scenario.faults.size() * std::uint64_t{1'000'000'000};
  for (const ScenarioJob& j : scenario.jobs) {
    // Jobs weigh like faults, plus their iteration count so halving the
    // work inside a job is also a strict shrink.
    w += std::uint64_t{1'000'000'000} + j.iters * std::uint64_t{100'000'000};
  }
  w += static_cast<std::uint64_t>(scenario.size_knob) * std::uint64_t{1'000'000};
  w += static_cast<std::uint64_t>(scenario.wiring) * std::uint64_t{10'000};
  return w;
}

std::vector<Scenario> shrink_candidates(const Scenario& scenario) {
  std::vector<Scenario> out;
  const auto push = [&](Scenario cand) {
    // Every candidate must be strictly smaller; the harness loop relies on
    // that for termination.
    if (scenario_weight(cand) < scenario_weight(scenario)) out.push_back(std::move(cand));
  };

  // Drop half the flows (front half, back half).
  if (scenario.flows.size() > 1) {
    const std::size_t half = scenario.flows.size() / 2;
    Scenario front = scenario;
    front.flows.erase(front.flows.begin(), front.flows.begin() + static_cast<std::ptrdiff_t>(half));
    push(std::move(front));
    Scenario back = scenario;
    back.flows.resize(scenario.flows.size() - half);
    push(std::move(back));
  }
  // Drop half the faults.
  if (scenario.faults.size() > 1) {
    const std::size_t half = scenario.faults.size() / 2;
    Scenario front = scenario;
    front.faults.erase(front.faults.begin(),
                       front.faults.begin() + static_cast<std::ptrdiff_t>(half));
    push(std::move(front));
    Scenario back = scenario;
    back.faults.resize(scenario.faults.size() - half);
    push(std::move(back));
  }
  // Drop half the jobs.
  if (scenario.jobs.size() > 1) {
    const std::size_t half = scenario.jobs.size() / 2;
    Scenario front = scenario;
    front.jobs.erase(front.jobs.begin(),
                     front.jobs.begin() + static_cast<std::ptrdiff_t>(half));
    push(std::move(front));
    Scenario back = scenario;
    back.jobs.resize(scenario.jobs.size() - half);
    push(std::move(back));
  }
  // Drop individual jobs / halve their iterations.
  if (scenario.jobs.size() <= 8) {
    for (std::size_t i = 0; !scenario.jobs.empty() && i < scenario.jobs.size(); ++i) {
      Scenario cand = scenario;
      cand.jobs.erase(cand.jobs.begin() + static_cast<std::ptrdiff_t>(i));
      push(std::move(cand));
    }
  }
  bool any_multi_iter = false;
  for (const ScenarioJob& j : scenario.jobs) any_multi_iter |= j.iters > 1;
  if (any_multi_iter) {
    Scenario lighter = scenario;
    for (ScenarioJob& j : lighter.jobs) j.iters = std::max<std::uint32_t>(1, j.iters / 2);
    push(std::move(lighter));
  }
  // Cross-kind simplification toward the 4-8 node terminal.
  if (scenario.topology != TopologyKind::kTinyClos) {
    Scenario tiny = scenario;
    tiny.topology = TopologyKind::kTinyClos;
    tiny.size_knob = std::min<std::uint32_t>(std::max<std::uint32_t>(scenario.size_knob, 1), 2);
    tiny.wiring = 1;
    push(std::move(tiny));
  }
  // Shrink the topology knobs.
  if (scenario.size_knob > 1) {
    Scenario smaller = scenario;
    smaller.size_knob = std::max<std::uint32_t>(1, scenario.size_knob / 2);
    push(std::move(smaller));
  }
  if (scenario.wiring > 1) {
    Scenario sparser = scenario;
    sparser.wiring = scenario.wiring / 2;
    push(std::move(sparser));
  }
  // Drop individual flows / faults (bounded fan-out).
  if (scenario.flows.size() <= 8) {
    for (std::size_t i = 0; scenario.flows.size() > 1 && i < scenario.flows.size(); ++i) {
      Scenario cand = scenario;
      cand.flows.erase(cand.flows.begin() + static_cast<std::ptrdiff_t>(i));
      push(std::move(cand));
    }
  }
  if (scenario.faults.size() <= 8) {
    for (std::size_t i = 0; !scenario.faults.empty() && i < scenario.faults.size(); ++i) {
      Scenario cand = scenario;
      cand.faults.erase(cand.faults.begin() + static_cast<std::ptrdiff_t>(i));
      push(std::move(cand));
    }
  }
  // Halve flow sizes.
  bool any_large = false;
  for (const ScenarioFlow& f : scenario.flows) any_large |= f.size_bytes > 2'048;
  if (any_large) {
    Scenario halved = scenario;
    for (ScenarioFlow& f : halved.flows) {
      f.size_bytes = std::max<std::int64_t>(1'024, f.size_bytes / 2);
    }
    push(std::move(halved));
  }
  return out;
}

}  // namespace hpn::fuzz
