// FlowSession end-to-end cost: N flows with distinct sizes on one shared
// two-hop path, run to completion by the production session (per-class
// service clocks + a completion heap) and by the eager session it replaced
// (tests/support/reference_session.h), in the same process.
//
// Every flow has the same (path, cap), so the solver sees one class and
// re-rates it at every completion; distinct sizes make every completion its
// own instant. The eager session walks all active flows three times per
// completion (O(N^2) over the run), the lazy one pays O(log N) per
// completion. Both must complete the same flows at FCTs within
// max(1 ns, 1e-9 relative), and the lazy session's work counters are exact
// functions of N:
//
//   recomputes      = N + 1  (the start batch, then one per completion)
//   completions     = N
//   classes_rerated = N      (the class after the starts and after each of
//                             the first N-1 drains, each at a higher rate;
//                             the last drain frees it)
//   heap_updates    = 3N     (N joins, N re-rates, N-1 drain re-keys, 1 free)
//
// Gates compare the two engines in the same run and check the counters;
// absolute milliseconds are reported, never gated.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_common.h"
#include "common/check.h"
#include "flowsim/session.h"
#include "sim/simulator.h"
#include "tests/support/reference_session.h"
#include "tests/support/session_differential.h"
#include "topo/topology.h"

namespace {

using namespace hpn;

using Clock = std::chrono::steady_clock;

struct Run {
  double best_ms = std::numeric_limits<double>::infinity();
  std::vector<reference::Completion> done;
  flowsim::FlowSession::Stats stats;  ///< lazy session only
};

template <class Session>
Run run_shape(std::size_t n, int reps) {
  Run r;
  for (int rep = 0; rep < reps; ++rep) {
    topo::Topology t;
    const NodeId a = t.add_node(topo::NodeKind::kNic, "a");
    const NodeId b = t.add_node(topo::NodeKind::kTor, "b");
    const NodeId c = t.add_node(topo::NodeKind::kNic, "c");
    const std::vector<LinkId> path = {
        t.add_duplex_link(a, b, topo::LinkKind::kAccess, Bandwidth::gbps(400),
                          Duration::micros(1))
            .forward,
        t.add_duplex_link(b, c, topo::LinkKind::kAccess, Bandwidth::gbps(400),
                          Duration::micros(1))
            .forward};
    sim::Simulator s;
    Session fs{t, s, flowsim::Aggregation::kMacroFlows};
    std::vector<reference::Completion> done(n);
    const auto t0 = Clock::now();
    const PathId pid = fs.paths().intern(path);
    for (std::size_t i = 0; i < n; ++i) {
      // Distinct sizes, 1 Mbit apart: completions are >= 2.5 us apart.
      fs.start_flow(pid, DataSize::bits(static_cast<std::int64_t>(i + 1) * 1'000'000),
                    Bandwidth::gbps(400), [&done, &s, i](FlowId) {
                      done[i].done_ns = s.now().since_origin().as_nanos();
                    });
    }
    s.run();
    const double ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    HPN_CHECK_MSG(fs.active_flows() == 0, "every flow must complete");
    if (ms < r.best_ms) r.best_ms = ms;
    r.done = std::move(done);
    if constexpr (std::is_same_v<Session, flowsim::FlowSession>) r.stats = fs.stats();
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::banner("FlowSession end to end — lazy class clocks vs the eager session",
                "N distinct-size flows on one shared two-hop path: the lazy "
                "session pays per completion what changed, the eager one "
                "walks every active flow");

  const std::vector<std::size_t> shapes =
      args.smoke ? std::vector<std::size_t>{1024, 4096}
                 : std::vector<std::size_t>{1024, 4096, 16384};
  metrics::Table t{"FlowSession, N flows on one shared two-hop path (" +
                   std::string(args.smoke ? "smoke" : "full") + " scale)"};
  t.columns({"flows", "engine", "best_ms", "recomputes", "classes_rerated", "heap_updates",
             "completions", "speedup_vs_eager"});

  double last_speedup = 0.0;
  double last_ms = 0.0;
  for (const std::size_t n : shapes) {
    const Run lazy = run_shape<flowsim::FlowSession>(n, 3);
    // The eager session is quadratic; one repetition at the largest shape.
    const Run eager = run_shape<reference::FlowSession>(n, n >= 16384 ? 1 : 2);
    const std::string diff = reference::compare_completions(lazy.done, eager.done);
    HPN_CHECK_MSG(diff.empty(), "lazy session diverges from the eager one at N=" << n
                                                                                 << ":\n"
                                                                                 << diff);
    const flowsim::FlowSession::Stats& st = lazy.stats;
    HPN_CHECK_MSG(st.recomputes == n + 1 && st.completions == n &&
                      st.classes_rerated == n && st.heap_updates == 3 * n,
                  "work counters at N=" << n << ": recomputes " << st.recomputes
                                        << ", completions " << st.completions
                                        << ", classes_rerated " << st.classes_rerated
                                        << ", heap_updates " << st.heap_updates);
    const double speedup = eager.best_ms / lazy.best_ms;
    t.add_row({std::to_string(n), "eager", metrics::Table::num(eager.best_ms, 3), "", "", "",
               std::to_string(n), "1.00"});
    t.add_row({std::to_string(n), "lazy", metrics::Table::num(lazy.best_ms, 3),
               std::to_string(st.recomputes), std::to_string(st.classes_rerated),
               std::to_string(st.heap_updates), std::to_string(st.completions),
               metrics::Table::num(speedup, 1)});
    last_speedup = speedup;
    last_ms = lazy.best_ms;
  }
  bench::emit(t, "e2e_session", args);

  const std::size_t largest = shapes.back();
  std::cout << "\nN=" << largest << ": lazy session " << metrics::Table::num(last_ms, 2)
            << " ms, " << metrics::Table::num(last_speedup, 1)
            << "x the eager session in this run\n";

  // Profiling escape: instrumented builds distort the ratio.
  if (std::getenv("HPN_BENCH_PROFILE") != nullptr) return 0;
  // Same-run ratio floor at the largest shape (full: the 20x acceptance
  // target at 16K; smoke: a regression guard well under the ~30x measured
  // at 4K, since ctest may share the CPU).
  const double floor = args.smoke ? 5.0 : 20.0;
  HPN_CHECK_MSG(last_speedup >= floor, "lazy session must stay >= "
                                           << floor << "x the eager one at N=" << largest
                                           << " (got " << last_speedup << "x)");
  return 0;
}
