// ClassSessionDifferential over fuzz scenarios: each scenario's session
// workload and fault schedule (the harness's session phase) runs through
// the production FlowSession and through the session and solver that
// grouped flows into (path, cap) classes (tests/support/
// reference_class_session.h, one class per flow). Completion nanoseconds,
// callback order, tracer bytes and simulator event counts must be
// identical.
#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "flowsim/session.h"
#include "sim/simulator.h"
#include "tests/fuzz/fuzz_harness.h"
#include "tests/fuzz/generator.h"
#include "tests/support/reference_class_session.h"

namespace hpn::fuzz {
namespace {

struct Outcome {
  std::vector<std::int64_t> done_ns;  ///< per flow; -1 if it never completed
  std::vector<std::size_t> fired;     ///< flows in callback order
  std::string trace_csv;
  std::uint64_t events_processed = 0;
  std::uint64_t events_scheduled = 0;  ///< incl. cancelled ones
  std::string audit;
};

template <class Session>
Outcome run(const Scenario& scenario) {
  Materialized m = materialize(scenario);
  sim::Simulator sim;
  sim.auditor().enable();
  sim.tracer().enable(1 << 16);
  Session session{m.cluster.topo, sim};
  Outcome out;
  out.done_ns.assign(m.flows.size(), -1);
  for (std::size_t i = 0; i < m.flows.size(); ++i) {
    const Materialized::Flow& f = m.flows[i];
    session.start_flow(f.path, f.size, f.cap, [&out, &sim, i](FlowId) {
      out.done_ns[i] = sim.now().since_origin().as_nanos();
      out.fired.push_back(i);
    });
  }
  schedule_faults(sim, m.cluster.topo, m.faults, [&session] { session.refresh(); });
  sim.run();
  std::ostringstream csv;
  sim.tracer().write_csv(csv);
  out.trace_csv = csv.str();
  out.events_processed = sim.processed_events();
  out.events_scheduled = sim.scheduled_events();
  if (!sim.auditor().ok()) out.audit = sim.auditor().report();
  return out;
}

TEST(ClassSessionDifferential, FuzzScenariosMatchTheClassSessionExactly) {
  constexpr int kScenarios = 400;
  int mismatches = 0;
  std::size_t flows = 0;
  for (int i = 0; i < kScenarios; ++i) {
    const Scenario scenario = random_scenario(sweep_seed(20261018, i));
    const Outcome got = run<flowsim::FlowSession>(scenario);
    const Outcome want = run<reference::ClassFlowSession>(scenario);
    flows += got.done_ns.size();
    std::string diff;
    if (got.done_ns != want.done_ns) diff += "completion instants differ\n";
    if (got.fired != want.fired) diff += "completion callbacks fire in another order\n";
    if (got.trace_csv != want.trace_csv) diff += "tracer bytes differ\n";
    if (got.events_processed != want.events_processed ||
        got.events_scheduled != want.events_scheduled) {
      diff += "simulator event counts differ\n";
    }
    if (!got.audit.empty()) diff += "auditor: " + got.audit + "\n";
    if (!diff.empty()) {
      ++mismatches;
      ADD_FAILURE() << "scenario " << i << " (seed " << scenario.seed << "):\n" << diff;
      if (mismatches >= 5) break;
    }
  }
  std::cout << "[differential] " << kScenarios << " fuzz scenarios (" << flows
            << " flows) vs the class session: " << mismatches << " mismatches\n";
  EXPECT_EQ(mismatches, 0);
}

}  // namespace
}  // namespace hpn::fuzz
