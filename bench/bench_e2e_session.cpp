// FlowSession end-to-end cost: N flows with distinct sizes run to
// completion by the production session (per-flow service clocks + a
// completion heap) and by the eager session it replaced
// (tests/support/reference_session.h), in the same process, on two shapes.
//
//  * disjoint: flow i alone on its own two-hop path. Each completion
//    touches one flow, so the lazy session pays O(log N) per completion
//    while the eager one walks all active flows three times (O(N^2) over
//    the run). This shape is gated: both engines must complete the same
//    flows at FCTs within max(1 ns, 1e-9 relative), the lazy session must
//    beat the eager one by a same-run ratio at the largest N, and its work
//    counters are exact functions of N:
//
//      recomputes      = N + 1  (the start batch, then one per completion)
//      completions     = N
//      classes_rerated = N      (every flow once, after the starts)
//      heap_updates    = 3N     (N joins, N re-rates, N drains)
//
//  * shared: every flow on one two-hop path (one (path, cap)), up to
//    N = 4,096. Every completion re-rates every survivor, so the lazy
//    session does quadratic work too: classes_rerated = N(N+1)/2 and
//    heap_updates = 2N + N(N+1)/2. Its counters and FCTs are gated and its
//    time reported, with no speed-up floor.
//
// Absolute milliseconds are reported, never gated.
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

/// One two-hop NIC -> ToR -> NIC path of 400G links.
std::vector<LinkId> add_path(topo::Topology& t) {
  const NodeId a = t.add_node(topo::NodeKind::kNic, "a");
  const NodeId b = t.add_node(topo::NodeKind::kTor, "b");
  const NodeId c = t.add_node(topo::NodeKind::kNic, "c");
  return {t.add_duplex_link(a, b, topo::LinkKind::kAccess, Bandwidth::gbps(400),
                            Duration::micros(1))
              .forward,
          t.add_duplex_link(b, c, topo::LinkKind::kAccess, Bandwidth::gbps(400),
                            Duration::micros(1))
              .forward};
}

template <class Session>
Run run_shape(std::size_t n, bool shared, int reps) {
  Run r;
  for (int rep = 0; rep < reps; ++rep) {
    topo::Topology t;
    std::vector<std::vector<LinkId>> paths(shared ? 1 : n);
    for (auto& path : paths) path = add_path(t);
    sim::Simulator s;
    Session fs{t, s};
    std::vector<reference::Completion> done(n);
    const auto t0 = Clock::now();
    std::vector<PathId> pids;
    pids.reserve(paths.size());
    for (const auto& path : paths) pids.push_back(fs.paths().intern(path));
    for (std::size_t i = 0; i < n; ++i) {
      // Distinct sizes, 1 Mbit apart: completions are >= 2.5 us apart.
      fs.start_flow(pids[shared ? 0 : i],
                    DataSize::bits(static_cast<std::int64_t>(i + 1) * 1'000'000),
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
  bench::banner("FlowSession end to end — lazy flow clocks vs the eager session",
                "N distinct-size flows on disjoint two-hop paths: the lazy "
                "session pays per completion what changed, the eager one "
                "walks every active flow; the shared-path row shows the "
                "quadratic cost of N flows on one path");

  const std::vector<std::size_t> shapes =
      args.smoke ? std::vector<std::size_t>{1024, 4096}
                 : std::vector<std::size_t>{1024, 4096, 16384};
  const std::size_t largest_shared = args.smoke ? 1024 : 4096;
  metrics::Table t{"FlowSession, N distinct-size flows on two-hop paths (" +
                   std::string(args.smoke ? "smoke" : "full") + " scale)"};
  t.columns({"flows", "paths", "engine", "best_ms", "recomputes", "classes_rerated",
             "heap_updates", "completions", "speedup_vs_eager"});

  double last_speedup = 0.0;
  double last_ms = 0.0;
  for (const bool shared : {false, true}) {
    for (const std::size_t n : shapes) {
      if (shared && n > largest_shared) continue;
      const Run lazy = run_shape<flowsim::FlowSession>(n, shared, 3);
      // The eager session is quadratic; one repetition at the largest shape.
      const Run eager = run_shape<reference::FlowSession>(n, shared, n >= 16384 ? 1 : 2);
      const std::string diff = reference::compare_completions(lazy.done, eager.done);
      HPN_CHECK_MSG(diff.empty(), "lazy session diverges from the eager one at N="
                                      << n << (shared ? " (shared)" : "") << ":\n"
                                      << diff);
      const flowsim::FlowSession::Stats& st = lazy.stats;
      const std::size_t rerated = shared ? n * (n + 1) / 2 : n;
      const std::size_t heap_updates = shared ? 2 * n + rerated : 3 * n;
      HPN_CHECK_MSG(st.recomputes == n + 1 && st.completions == n &&
                        st.classes_rerated == rerated && st.heap_updates == heap_updates,
                    "work counters at N=" << n << (shared ? " (shared)" : "") << ": recomputes "
                                          << st.recomputes << ", completions "
                                          << st.completions << ", classes_rerated "
                                          << st.classes_rerated << ", heap_updates "
                                          << st.heap_updates);
      const double speedup = eager.best_ms / lazy.best_ms;
      const std::string paths = shared ? "1" : std::to_string(n);
      t.add_row({std::to_string(n), paths, "eager", metrics::Table::num(eager.best_ms, 3), "",
                 "", "", std::to_string(n), "1.00"});
      t.add_row({std::to_string(n), paths, "lazy", metrics::Table::num(lazy.best_ms, 3),
                 std::to_string(st.recomputes), std::to_string(st.classes_rerated),
                 std::to_string(st.heap_updates), std::to_string(st.completions),
                 metrics::Table::num(speedup, 1)});
      if (!shared) {
        last_speedup = speedup;
        last_ms = lazy.best_ms;
      }
    }
  }
  bench::emit(t, "e2e_session");

  const std::size_t largest = shapes.back();
  std::cout << "\nN=" << largest << " on disjoint paths: lazy session "
            << metrics::Table::num(last_ms, 2) << " ms, "
            << metrics::Table::num(last_speedup, 1) << "x the eager session in this run\n";

  // Profiling escape: instrumented builds distort the ratio.
  if (std::getenv("HPN_BENCH_PROFILE") != nullptr) return 0;
  // Same-run ratio floor at the largest disjoint shape (full: the 20x
  // acceptance target at 16K; smoke: a regression guard well under the
  // ~17x measured at 4K, since ctest may share the CPU).
  const double floor = args.smoke ? 5.0 : 20.0;
  HPN_CHECK_MSG(last_speedup >= floor, "lazy session must stay >= "
                                           << floor << "x the eager one at N=" << largest
                                           << " (got " << last_speedup << "x)");
  return 0;
}
