// Differential battery: the lazily settled FlowSession (per-flow service
// clocks + completion heap) against two oracles. Random scenarios mix
// staggered and same-instant starts, zero-size flows, equal-size cohorts on
// one (path, cap), host-local flows, aborts, reroutes, link flips that
// stall flows and repairs that resume them, and completion callbacks that
// start new flows.
//
//  * SessionDifferential: the eager session (tests/support/
//    reference_session.h). Both runs must complete the same flows in the
//    same same-instant groups with FCTs within max(1 ns, 1e-9 relative),
//    with the InvariantAuditor (including the completion-heap and
//    lazy-settle rules) clean.
//  * ClassSessionDifferential: the session and solver that grouped flows
//    into (path, cap) classes (tests/support/reference_class_session.h), in
//    its default one-class-per-flow mode. Completion nanoseconds, callback order,
//    tracer bytes and simulator event counts must be identical.
#include <gtest/gtest.h>

#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "flowsim/session.h"
#include "sim/simulator.h"
#include "tests/support/reference_class_session.h"
#include "tests/support/reference_session.h"
#include "tests/support/session_differential.h"
#include "topo/topology.h"

namespace hpn::flowsim {
namespace {

using reference::kNeverCompleted;
using topo::LinkKind;
using topo::NodeKind;
using topo::Topology;

constexpr int kCables = 8;

/// Six nodes joined by kCables duplex cables of mixed capacity. Built
/// afresh per run (link flips mutate it); LinkIds are identical every time.
Topology build_topology() {
  Topology t;
  std::vector<NodeId> nodes;
  for (int i = 0; i < 6; ++i) {
    std::string name = "n";
    name += std::to_string(i);
    nodes.push_back(t.add_node(i < 4 ? NodeKind::kNic : NodeKind::kTor, std::move(name)));
  }
  const double gbps[] = {40.0, 100.0, 200.0, 100.0};
  for (int c = 0; c < kCables; ++c) {
    t.add_duplex_link(nodes[static_cast<std::size_t>(c % 6)],
                      nodes[static_cast<std::size_t>((c + 1 + c / 6) % 6)], LinkKind::kAccess,
                      Bandwidth::gbps(gbps[c % 4]), Duration::micros(1));
  }
  return t;
}

struct PlannedFlow {
  std::int64_t start_ns = -1;  ///< -1: started by its parent's callback
  std::size_t path = 0;
  std::int64_t bits = 0;
  double cap_gbps = 100.0;
  int child = -1;  ///< flow this one's completion callback starts
};

struct Action {
  enum class Kind { kAbort, kReroute, kLinkDown, kLinkUp } kind;
  std::int64_t at_ns = 0;
  std::size_t flow = 0;
  std::size_t path = 0;
  LinkId cable{};
};

struct Plan {
  std::vector<std::vector<LinkId>> paths;
  std::vector<PlannedFlow> flows;
  std::vector<Action> actions;
};

Plan draw_plan(std::uint64_t seed) {
  Rng rng{seed};
  const Topology t = build_topology();
  Plan plan;
  // Paths: 1-3 distinct links each, plus one empty (host-local) path.
  plan.paths.push_back({});
  for (int p = 0; p < 10; ++p) {
    std::vector<LinkId> path;
    const auto hops = rng.uniform_int(1, 3);
    while (static_cast<std::int64_t>(path.size()) < hops) {
      const LinkId l{static_cast<LinkId::underlying>(rng.uniform_index(t.link_count()))};
      if (std::find(path.begin(), path.end(), l) == path.end()) path.push_back(l);
    }
    plan.paths.push_back(std::move(path));
  }
  const double caps[] = {25.0, 50.0, 100.0, 400.0};
  auto draw_flow = [&](std::int64_t start_ns) {
    PlannedFlow f;
    f.start_ns = start_ns;
    // Mostly network paths; host-local flows are rare, as in the benches.
    f.path = rng.uniform_index(20) == 0 ? 0 : 1 + rng.uniform_index(plan.paths.size() - 1);
    f.bits = rng.uniform_index(10) == 0 ? 0 : rng.uniform_int(1, 8'000'000);
    f.cap_gbps = caps[rng.uniform_index(4)];
    return f;
  };
  const auto roots = rng.uniform_int(10, 40);
  for (std::int64_t r = 0; r < roots; ++r) {
    // Starts on a 10 us grid, so same-instant batches are common.
    PlannedFlow f = draw_flow(10'000 * rng.uniform_int(0, 200));
    // An equal-size cohort: identical flows that share one solver class.
    const auto copies = rng.uniform_index(4) == 0 ? rng.uniform_int(2, 6) : 1;
    for (std::int64_t c = 0; c < copies; ++c) plan.flows.push_back(f);
  }
  // Completion callbacks that start flows, sometimes two deep.
  for (std::size_t i = 0; i < plan.flows.size(); ++i) {
    if (rng.uniform_index(3) != 0) continue;
    plan.flows[i].child = static_cast<int>(plan.flows.size());
    plan.flows.push_back(draw_flow(-1));
  }
  const auto n = plan.flows.size();
  for (int a = 0; a < static_cast<int>(n / 8); ++a) {
    plan.actions.push_back({Action::Kind::kAbort, rng.uniform_int(0, 3'000'000),
                            rng.uniform_index(n), 0, LinkId{}});
  }
  for (int a = 0; a < static_cast<int>(n / 6); ++a) {
    plan.actions.push_back({Action::Kind::kReroute, rng.uniform_int(0, 3'000'000),
                            rng.uniform_index(n), rng.uniform_index(plan.paths.size()),
                            LinkId{}});
  }
  const auto flips = rng.uniform_int(0, 3);
  for (std::int64_t f = 0; f < flips; ++f) {
    const LinkId cable{static_cast<LinkId::underlying>(2 * rng.uniform_index(kCables))};
    const auto down = rng.uniform_int(0, 2'000'000);
    plan.actions.push_back({Action::Kind::kLinkDown, down, 0, 0, cable});
    // Most flips are repaired (stall, then resume); some stay down.
    if (rng.uniform_index(4) != 0) {
      plan.actions.push_back(
          {Action::Kind::kLinkUp, down + rng.uniform_int(50'000, 1'000'000), 0, 0, cable});
    }
  }
  return plan;
}

struct Outcome {
  std::vector<reference::Completion> done;  ///< per planned flow
  std::vector<int> action_ok;         ///< abort/reroute return values
  std::string audit;                  ///< auditor report, empty when clean
  std::string throughput;             ///< throughput_on mismatches
  std::uint64_t stalls = 0;
  std::vector<std::size_t> fired;     ///< planned flows in callback order
  std::string trace_csv;              ///< every tracer record
  std::uint64_t events_processed = 0;
  std::uint64_t events_scheduled = 0;  ///< incl. cancelled ones
};

/// Runs `plan` through `Session`. With `check_throughput`, every completion
/// callback compares throughput_on against a per-flow sum of rate_of over
/// every link.
template <class Session>
Outcome run_plan(const Plan& plan, bool check_throughput) {
  Topology t = build_topology();
  sim::Simulator s;
  s.auditor().enable();
  s.tracer().enable(1 << 14);
  Session fs{t, s};
  Outcome out;
  out.done.assign(plan.flows.size(), {});
  std::vector<FlowId> ids(plan.flows.size(), FlowId{0});
  std::vector<std::size_t> cur_path(plan.flows.size(), 0);

  auto check_links = [&] {
    for (std::uint32_t l = 0; l < t.link_count(); ++l) {
      const LinkId link{l};
      double brute = 0.0;
      for (std::size_t k = 0; k < ids.size(); ++k) {
        const auto rate = fs.rate_of(ids[k]);
        if (!rate) continue;
        const auto& path = plan.paths[cur_path[k]];
        brute += rate->as_bits_per_sec() *
                 static_cast<double>(std::count(path.begin(), path.end(), link));
      }
      const double got = fs.throughput_on(link).as_bits_per_sec();
      if (std::abs(got - brute) > 1e-9 * std::max(1.0, brute) && out.throughput.size() < 400) {
        out.throughput += "link " + std::to_string(l) + " at " +
                          std::to_string(s.now().since_origin().as_nanos()) + " ns: " +
                          std::to_string(got) + " != " + std::to_string(brute) + "\n";
      }
    }
  };

  std::function<void(std::size_t)> start = [&](std::size_t k) {
    const PlannedFlow& p = plan.flows[k];
    cur_path[k] = p.path;
    out.done[k].start_ns = s.now().since_origin().as_nanos();
    ids[k] = fs.start_flow(plan.paths[p.path], DataSize::bits(p.bits),
                           Bandwidth::gbps(p.cap_gbps), [&, k](FlowId) {
                             out.done[k].done_ns = s.now().since_origin().as_nanos();
                             out.fired.push_back(k);
                             if (check_throughput) check_links();
                             if (plan.flows[k].child >= 0) {
                               start(static_cast<std::size_t>(plan.flows[k].child));
                             }
                           });
  };
  for (std::size_t k = 0; k < plan.flows.size(); ++k) {
    if (plan.flows[k].start_ns < 0) continue;
    s.schedule_at(TimePoint::at_nanos(plan.flows[k].start_ns), [&, k] { start(k); });
  }
  out.action_ok.assign(plan.actions.size(), -1);
  for (std::size_t a = 0; a < plan.actions.size(); ++a) {
    const Action act = plan.actions[a];
    s.schedule_at(TimePoint::at_nanos(act.at_ns), [&, a, act] {
      switch (act.kind) {
        case Action::Kind::kAbort:
          out.action_ok[a] = fs.abort_flow(ids[act.flow]) ? 1 : 0;
          break;
        case Action::Kind::kReroute: {
          const bool ok = fs.reroute_flow(ids[act.flow], plan.paths[act.path]);
          if (ok) cur_path[act.flow] = act.path;
          out.action_ok[a] = ok ? 1 : 0;
          break;
        }
        case Action::Kind::kLinkDown:
        case Action::Kind::kLinkUp:
          t.set_duplex_up(act.cable, act.kind == Action::Kind::kLinkUp);
          fs.refresh();
          break;
      }
    });
  }
  s.run();
  if (!s.auditor().ok()) out.audit = s.auditor().report();
  out.stalls = s.tracer().events_of(metrics::TraceEventKind::kFlowStall).size();
  std::ostringstream csv;
  s.tracer().write_csv(csv);
  out.trace_csv = csv.str();
  out.events_processed = s.processed_events();
  out.events_scheduled = s.scheduled_events();
  return out;
}

std::string compare(const Plan& plan) {
  const Outcome got = run_plan<FlowSession>(plan, /*check_throughput=*/false);
  const Outcome want = run_plan<reference::FlowSession>(plan, false);
  std::string diff = reference::compare_completions(got.done, want.done);
  if (got.action_ok != want.action_ok) diff += "abort/reroute results differ\n";
  if (!got.audit.empty()) diff += "auditor: " + got.audit + "\n";
  return diff;
}

TEST(SessionDifferential, MatchesEagerReferenceOnRandomScenarios) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const std::string diff = compare(draw_plan(seed));
    ASSERT_TRUE(diff.empty()) << "seed " << seed << ":\n" << diff;
  }
}

TEST(ClassSessionDifferential, RandomPlansMatchTheClassSessionExactly) {
  std::size_t mismatches = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const Plan plan = draw_plan(seed);
    const Outcome got = run_plan<FlowSession>(plan, /*check_throughput=*/false);
    const Outcome want = run_plan<reference::ClassFlowSession>(plan, false);
    std::string diff;
    for (std::size_t k = 0; k < plan.flows.size(); ++k) {
      if (got.done[k].done_ns != want.done[k].done_ns && diff.size() < 400) {
        diff += "flow " + std::to_string(k) + " done at " +
                std::to_string(got.done[k].done_ns) + " ns, the class session's " +
                std::to_string(want.done[k].done_ns) + " ns\n";
      }
    }
    if (got.fired != want.fired) diff += "completion callbacks fire in another order\n";
    if (got.action_ok != want.action_ok) diff += "abort/reroute results differ\n";
    if (got.trace_csv != want.trace_csv) diff += "tracer bytes differ\n";
    if (got.events_processed != want.events_processed ||
        got.events_scheduled != want.events_scheduled) {
      diff += "simulator events " + std::to_string(got.events_processed) + "/" +
              std::to_string(got.events_scheduled) + " processed/scheduled, the class session's " +
              std::to_string(want.events_processed) + "/" +
              std::to_string(want.events_scheduled) + "\n";
    }
    if (!got.audit.empty()) diff += "auditor: " + got.audit + "\n";
    if (!diff.empty()) {
      ++mismatches;
      ADD_FAILURE() << "seed " << seed << ":\n" << diff;
      if (mismatches >= 5) break;
    }
  }
  std::cout << "[differential] 300 random plans vs the class session: " << mismatches
            << " mismatches\n";
  EXPECT_EQ(mismatches, 0u);
}

TEST(SessionDifferential, ThroughputOnMatchesPerFlowSumAtEveryCompletion) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const Outcome out = run_plan<FlowSession>(draw_plan(seed), /*check_throughput=*/true);
    ASSERT_TRUE(out.throughput.empty()) << "seed " << seed << ":\n" << out.throughput;
    ASSERT_TRUE(out.audit.empty()) << "seed " << seed << ":\n" << out.audit;
  }
}

// Guards the generator: the battery above only means something if its
// scenarios really contain each feature the header promises.
TEST(SessionDifferential, ScenariosExerciseWhatTheyClaim) {
  std::size_t zero_size = 0, cohorts = 0, chained = 0, host_local = 0, aborts = 0,
              reroutes = 0, stalls = 0, resumed = 0, never = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const Plan plan = draw_plan(seed);
    const Outcome out = run_plan<FlowSession>(plan, false);
    for (std::size_t k = 0; k < plan.flows.size(); ++k) {
      const PlannedFlow& f = plan.flows[k];
      if (f.bits == 0) ++zero_size;
      if (f.path == 0) ++host_local;
      if (f.child >= 0 && out.done[static_cast<std::size_t>(f.child)].done_ns != kNeverCompleted) {
        ++chained;
      }
      if (k > 0 && f.start_ns >= 0 && f.start_ns == plan.flows[k - 1].start_ns &&
          f.path == plan.flows[k - 1].path && f.bits == plan.flows[k - 1].bits &&
          f.bits > 0 && f.path != 0) {
        ++cohorts;
      }
      if (out.done[k].done_ns == kNeverCompleted) ++never;
    }
    for (std::size_t a = 0; a < plan.actions.size(); ++a) {
      if (out.action_ok[a] != 1) continue;
      ++(plan.actions[a].kind == Action::Kind::kAbort ? aborts : reroutes);
    }
    stalls += out.stalls;
    bool repaired = false;
    for (const Action& act : plan.actions) repaired |= act.kind == Action::Kind::kLinkUp;
    if (out.stalls > 0 && repaired) ++resumed;
  }
  EXPECT_GT(zero_size, 100u);
  EXPECT_GT(cohorts, 100u);
  EXPECT_GT(chained, 100u);
  EXPECT_GT(host_local, 20u);
  EXPECT_GT(aborts, 100u);
  EXPECT_GT(reroutes, 100u);
  EXPECT_GT(stalls, 100u);
  EXPECT_GT(resumed, 20u);
  EXPECT_GT(never, 0u);
}

}  // namespace
}  // namespace hpn::flowsim
