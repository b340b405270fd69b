// Differential suite for the ccl op table: ccl::Communicator (every
// collective a phase list run by one engine) against the closure-and-
// StagePipeline communicator kept in tests/support/reference_communicator.h.
//
// Each case plays one script on two identical rigs (cluster, simulator with
// the tracer on, session, router, connection manager), one per
// implementation, and compares:
//   * the trace CSV bytes: flow starts with ids and sizes, finishes, stalls,
//     reroutes and the collective spans, all at their simulated instants;
//   * every returned Duration, unroutable count and done instant, plus the
//     simulator's processed-event count after each drain (the same
//     schedule_now/schedule_after calls fire the same number of events);
//   * the shared ConnectionManager's WQE counter on every connection.
// After every drain the op table must hold no live slot.
//
// A destroyed communicator is the one place the two differ by design: the
// oracle could still fire a collective's `done` (and its span's end record)
// after death, through intra-host flows and tree-level timers that never
// checked its liveness flag; the op table dies with the communicator, so
// nothing fires. Those cases drop the oracle's post-death collective_end
// records before comparing and require every other byte to match.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "ccl/communicator.h"
#include "ctrl/fabric_controller.h"
#include "fabric/fabric.h"
#include "tests/support/reference_communicator.h"
#include "topo/builders.h"

namespace hpn::ccl {
namespace {

enum class Fabric { kHpnTiny, kFatTree, kDcnPlus, kRailOnlyTier2 };

topo::Cluster build(Fabric fabric) {
  switch (fabric) {
    case Fabric::kHpnTiny: return topo::build_hpn(topo::HpnConfig::tiny());
    case Fabric::kFatTree: return topo::build_fat_tree(topo::FatTreeConfig{.k = 4});
    case Fabric::kDcnPlus:
      return fabric::fabric_or_throw("dcn+").build(
          fabric::FabricScale{.pods = 1, .segments_per_pod = 2, .hosts_per_segment = 4});
    case Fabric::kRailOnlyTier2: {
      auto cfg = topo::HpnConfig::tiny();
      cfg.rail_only_tier2 = true;
      return topo::build_hpn(cfg);
    }
  }
  throw std::logic_error("unknown fabric");
}

struct Rig {
  topo::Cluster cluster;
  sim::Simulator sim;
  flowsim::FlowSession session{cluster.topo, sim};
  routing::Router router{cluster.topo};
  ConnectionManager conns{cluster, router};

  explicit Rig(Fabric fabric) : cluster{build(fabric)} { sim.tracer().enable(); }

  [[nodiscard]] std::vector<int> ranks(int hosts, int first_host = 0) const {
    std::vector<int> out;
    for (int h = first_host; h < first_host + hosts; ++h) {
      for (int r = 0; r < cluster.gpus_per_host; ++r) out.push_back(h * cluster.gpus_per_host + r);
    }
    return out;
  }
};

struct Outcome {
  std::string trace;
  std::vector<std::int64_t> results;
  std::vector<std::int64_t> wqe_bits;
  bool drained = false;
};

/// Trace CSV; drops collective_end records from the `keep_ends`-th record
/// on (a destroyed communicator's late span ends).
std::string trace_csv(const metrics::Tracer& tracer,
                      std::size_t keep_ends = std::string::npos) {
  std::ostringstream os;
  tracer.write_csv(os);
  if (keep_ends == std::string::npos) return os.str();
  std::istringstream in{os.str()};
  std::string out;
  std::string line;
  std::getline(in, line);  // header
  out += line + '\n';
  for (std::size_t record = 0; std::getline(in, line); ++record) {
    if (record >= keep_ends && line.find(",collective_end,") != std::string::npos) continue;
    out += line + '\n';
  }
  return out;
}

std::vector<std::int64_t> wqe_bits(const ConnectionManager& cm) {
  std::vector<std::int64_t> bits;
  for (std::uint32_t i = 0;; ++i) {
    try {
      bits.push_back(cm.connection(ConnId{i}).outstanding_wqe_bits);
    } catch (const std::out_of_range&) {
      return bits;
    }
  }
}

template <typename Comm>
void expect_idle(const Comm& comm) {
  if constexpr (std::is_same_v<Comm, Communicator>) {
    EXPECT_EQ(comm.ops_in_flight(), 0u);
  }
}

/// Runs one asynchronous op to the end of the event queue; returns its
/// duration in ns (-1 if `done` never fired).
template <typename Comm>
std::int64_t drain(Rig& rig, const Comm& comm,
                   const std::function<void(std::function<void()>)>& op) {
  const TimePoint start = rig.sim.now();
  std::int64_t took = -1;
  op([&] { took = (rig.sim.now() - start).as_nanos(); });
  rig.sim.run();
  expect_idle(comm);
  return took;
}

// ---- Scripts ------------------------------------------------------------------

enum class Script {
  kEveryCollective,  ///< each collective alone at three sizes
  kConcurrent,       ///< overlapping ops on one communicator and on two sharing a manager
  kPortFailover,     ///< a port down mid-flight + on_fabric_change, repaired later
  kFailoverAfterDone,  ///< a port down while messages reuse a drained op's records
  kUnreachable,      ///< both ports of a NIC down: messages ride the retry loop
  kRailOnly,         ///< rail-only tier2: unroutable all-to-all, then relay
};

struct Case {
  const char* name;
  Fabric fabric;
  int hosts;
  CclConfig ccl;
  Script script = Script::kEveryCollective;
};

template <typename Comm>
void every_collective(Rig& rig, Comm& comm, std::vector<std::int64_t>& out) {
  using Done = std::function<void()>;
  const auto record = [&](std::int64_t v) {
    out.push_back(v);
    out.push_back(static_cast<std::int64_t>(rig.sim.processed_events()));
  };
  const int last = comm.world_size() - 1;
  for (const DataSize size :
       {DataSize::zero(), DataSize::kilobytes(256), DataSize::megabytes(48)}) {
    record(comm.run_all_reduce(size).as_nanos());
    record(comm.run_reduce_scatter(size).as_nanos());
    record(comm.run_all_gather(size).as_nanos());
    record(comm.run_multi_all_reduce(size).as_nanos());
    for (const bool relay : {true, false}) {
      int unroutable = -1;
      record(drain(rig, comm,
                   [&](Done d) { unroutable = comm.all_to_all(size, relay, std::move(d)); }));
      record(unroutable);
    }
    record(drain(rig, comm, [&](Done d) { comm.point_to_point(0, last, size, std::move(d)); }));
    record(drain(rig, comm, [&](Done d) { comm.point_to_point(last, 0, size, std::move(d)); }));
  }
  expect_idle(comm);
}

template <typename Comm>
void concurrent(Rig& rig, Comm& a, std::vector<std::int64_t>& out) {
  // `b` covers the next hosts and shares the session and manager with `a`.
  Comm b{rig.cluster, rig.sim, rig.session, rig.conns, rig.ranks(a.host_count(), a.host_count()),
         a.config()};
  const TimePoint start = rig.sim.now();
  std::vector<std::int64_t> done_at(6, -1);
  const auto mark = [&](std::size_t i) {
    return [&, i] { done_at[i] = (rig.sim.now() - start).as_nanos(); };
  };
  a.all_reduce(DataSize::megabytes(40), mark(0));
  b.multi_all_reduce(DataSize::megabytes(24), mark(1));
  a.all_gather(DataSize::megabytes(16), mark(2));
  out.push_back(b.all_to_all(DataSize::megabytes(8), true, mark(3)));
  a.point_to_point(0, a.world_size() - 1, DataSize::megabytes(4), mark(4));
  b.reduce_scatter(DataSize::megabytes(20), mark(5));
  if constexpr (std::is_same_v<Comm, Communicator>) {
    EXPECT_EQ(a.ops_in_flight(), 3u);
  }
  rig.sim.run();
  out.insert(out.end(), done_at.begin(), done_at.end());
  expect_idle(a);
  expect_idle(b);
}

template <typename Comm>
void failover(Rig& rig, Comm& comm, std::vector<std::int64_t>& out, bool both_ports) {
  ctrl::FabricController fabric{rig.cluster, rig.sim, rig.router};
  const int host = comm.host_count() - 1;
  const TimePoint start = rig.sim.now();
  std::vector<std::int64_t> done_at(3, -1);
  const auto mark = [&](std::size_t i) {
    return [&, i] { done_at[i] = (rig.sim.now() - start).as_nanos(); };
  };
  comm.all_reduce(DataSize::megabytes(96), mark(0));
  comm.multi_all_reduce(DataSize::megabytes(32), mark(1));
  comm.point_to_point(0, comm.world_size() - 1, DataSize::megabytes(16), mark(2));
  const auto change = [&](bool up) {
    for (int port = 0; port < (both_ports ? 2 : 1); ++port) {
      if (up) {
        fabric.repair_access(host, 0, port);
      } else {
        fabric.fail_access(host, 0, port);
      }
    }
    comm.on_fabric_change();
  };
  rig.sim.schedule_at(start + Duration::micros(300), [&] { change(false); });
  rig.sim.schedule_at(start + Duration::millis(35), [&] { change(true); });
  rig.sim.run();
  out.insert(out.end(), done_at.begin(), done_at.end());
  out.push_back(static_cast<std::int64_t>(rig.sim.processed_events()));
  expect_idle(comm);
}

/// An all-to-all fills the message table and drains, so its records are
/// free when a big all-reduce and a send start and reuse them last-in
/// first-out. The port fails as soon as the all-reduce's ring messages are
/// posted beside the send's: on_fabric_change then walks a table of freed
/// records and live ones out of FlowId order, and must still re-steer in
/// ascending FlowId order.
template <typename Comm>
void failover_after_done(Rig& rig, Comm& comm, std::vector<std::int64_t>& out) {
  ctrl::FabricController fabric{rig.cluster, rig.sim, rig.router};
  const int host = comm.host_count() - 1;
  out.push_back(drain(rig, comm, [&](std::function<void()> d) {
    comm.all_to_all(DataSize::megabytes(8), true, std::move(d));
  }));
  const TimePoint start = rig.sim.now();
  std::vector<std::int64_t> done_at(2, -1);
  const auto mark = [&](std::size_t i) {
    return [&, i] { done_at[i] = (rig.sim.now() - start).as_nanos(); };
  };
  comm.all_reduce(DataSize::megabytes(96), mark(0));
  comm.point_to_point(0, comm.world_size() - 1, DataSize::megabytes(16), mark(1));
  const auto posted = [&] {
    const std::vector<std::int64_t> bits = wqe_bits(rig.conns);
    return std::count_if(bits.begin(), bits.end(), [](std::int64_t b) { return b > 0; });
  };
  while (posted() <= 1 && rig.sim.step()) {
  }
  out.push_back((rig.sim.now() - start).as_nanos());
  fabric.fail_access(host, 0, 0);
  comm.on_fabric_change();
  rig.sim.schedule_at(start + Duration::millis(35), [&] {
    fabric.repair_access(host, 0, 0);
    comm.on_fabric_change();
  });
  rig.sim.run();
  out.insert(out.end(), done_at.begin(), done_at.end());
  out.push_back(static_cast<std::int64_t>(rig.sim.processed_events()));
  expect_idle(comm);
}

template <typename Comm>
Outcome play(const Case& c) {
  Rig rig{c.fabric};
  Outcome out;
  Comm comm{rig.cluster, rig.sim, rig.session, rig.conns, rig.ranks(c.hosts), c.ccl};
  switch (c.script) {
    case Script::kEveryCollective: every_collective(rig, comm, out.results); break;
    case Script::kConcurrent: concurrent(rig, comm, out.results); break;
    case Script::kPortFailover: failover(rig, comm, out.results, false); break;
    case Script::kFailoverAfterDone: failover_after_done(rig, comm, out.results); break;
    case Script::kUnreachable: failover(rig, comm, out.results, true); break;
    case Script::kRailOnly:
      for (const bool relay : {false, true}) {
        int unroutable = -1;
        out.results.push_back(drain(rig, comm, [&](std::function<void()> d) {
          unroutable = comm.all_to_all(DataSize::megabytes(8), relay, std::move(d));
        }));
        out.results.push_back(unroutable);
      }
      break;
  }
  out.trace = trace_csv(rig.sim.tracer());
  out.wqe_bits = wqe_bits(rig.conns);
  out.drained = rig.session.active_flows() == 0 && rig.sim.pending_events() == 0;
  return out;
}

/// Counts and reports differences; returns the number of mismatches.
int compare(const std::string& name, const Outcome& got, const Outcome& want) {
  int mismatches = 0;
  if (got.trace != want.trace) {
    ++mismatches;
    std::istringstream g{got.trace};
    std::istringstream w{want.trace};
    std::string gl;
    std::string wl;
    for (int line = 1;; ++line) {
      const bool more_g = static_cast<bool>(std::getline(g, gl));
      const bool more_w = static_cast<bool>(std::getline(w, wl));
      if (!more_g && !more_w) break;
      if (gl != wl || more_g != more_w) {
        ADD_FAILURE() << name << ": trace differs at line " << line << "\n  op table: "
                      << (more_g ? gl : "<end>") << "\n  oracle:   " << (more_w ? wl : "<end>");
        break;
      }
    }
  }
  if (got.results != want.results) {
    ++mismatches;
    ADD_FAILURE() << name << ": returned durations/counts differ";
  }
  if (got.wqe_bits != want.wqe_bits) {
    ++mismatches;
    ADD_FAILURE() << name << ": WQE counters differ";
  }
  if (!got.drained || !want.drained) {
    ++mismatches;
    ADD_FAILURE() << name << ": session or simulator not drained";
  }
  std::cout << "[differential] " << name << ": "
            << std::count(want.trace.begin(), want.trace.end(), '\n') - 1 << " trace records, "
            << want.results.size() << " results, " << want.wqe_bits.size() << " connections, "
            << mismatches << " mismatches\n";
  return mismatches;
}

void expect_same(const Case& c) {
  const Outcome got = play<Communicator>(c);
  const Outcome want = play<reference::Communicator>(c);
  EXPECT_EQ(compare(c.name, got, want), 0);
  // Every case must have moved bytes through the fabric.
  EXPECT_NE(want.trace.find("flow_start"), std::string::npos) << c.name;
}

CclConfig with(void (*edit)(CclConfig&)) {
  CclConfig cfg;
  edit(cfg);
  return cfg;
}

TEST(CommunicatorDifferential, EveryCollectiveOnHpnTiny) {
  for (const Case& c : {
           Case{"hpn 4 hosts, defaults", Fabric::kHpnTiny, 4, {}},
           Case{"hpn 4 hosts, per-step rings", Fabric::kHpnTiny, 4,
                with([](CclConfig& x) { x.bulk_rings = false; })},
           Case{"hpn 8 hosts, nvls off, 1 channel", Fabric::kHpnTiny, 8,
                with([](CclConfig& x) {
                  x.nvls = false;
                  x.channels_per_edge = 1;
                })},
           Case{"hpn 1 host", Fabric::kHpnTiny, 1, {}},
           Case{"hpn 2 hosts, 2 chunks", Fabric::kHpnTiny, 2,
                with([](CclConfig& x) { x.pipeline_chunks = 2; })},
           Case{"hpn 3 hosts, 1 chunk, per-step", Fabric::kHpnTiny, 3,
                with([](CclConfig& x) {
                  x.pipeline_chunks = 1;
                  x.bulk_rings = false;
                })},
       }) {
    expect_same(c);
  }
}

TEST(CommunicatorDifferential, TreeAndAutoAlgorithms) {
  for (const Case& c : {
           Case{"hpn 8 hosts, tree", Fabric::kHpnTiny, 8,
                with([](CclConfig& x) { x.algorithm = RingAlgorithm::kTree; })},
           Case{"hpn 5 hosts, tree, per-step", Fabric::kHpnTiny, 5,
                with([](CclConfig& x) {
                  x.algorithm = RingAlgorithm::kTree;
                  x.bulk_rings = false;
                })},
           Case{"hpn 7 hosts, auto, 2 chunks", Fabric::kHpnTiny, 7,
                with([](CclConfig& x) {
                  x.algorithm = RingAlgorithm::kAuto;
                  x.pipeline_chunks = 2;
                })},
           Case{"hpn 6 hosts, auto, nvls off", Fabric::kHpnTiny, 6,
                with([](CclConfig& x) {
                  x.algorithm = RingAlgorithm::kAuto;
                  x.nvls = false;
                })},
       }) {
    expect_same(c);
  }
}

TEST(CommunicatorDifferential, FatTreeAndDcnPlus) {
  for (const Case& c : {
           Case{"fat-tree 8 hosts", Fabric::kFatTree, 8, {}},
           Case{"fat-tree 5 hosts, tree, per-step", Fabric::kFatTree, 5,
                with([](CclConfig& x) {
                  x.algorithm = RingAlgorithm::kTree;
                  x.bulk_rings = false;
                })},
           Case{"dcn+ 6 hosts", Fabric::kDcnPlus, 6, {}},
           Case{"dcn+ 8 hosts, per-step, 1 channel", Fabric::kDcnPlus, 8,
                with([](CclConfig& x) {
                  x.bulk_rings = false;
                  x.channels_per_edge = 1;
                })},
       }) {
    expect_same(c);
  }
}

TEST(CommunicatorDifferential, ConcurrentOpsAndSharedManager) {
  for (const Case& c : {
           Case{"concurrent, bulk", Fabric::kHpnTiny, 4, {}, Script::kConcurrent},
           Case{"concurrent, per-step tree", Fabric::kHpnTiny, 4,
                with([](CclConfig& x) {
                  x.bulk_rings = false;
                  x.algorithm = RingAlgorithm::kTree;
                }),
                Script::kConcurrent},
           Case{"concurrent, fat-tree", Fabric::kFatTree, 8, {}, Script::kConcurrent},
       }) {
    expect_same(c);
  }
}

TEST(CommunicatorDifferential, PortDownMidFlightAndUnreachableRetry) {
  for (const Case& c : {
           Case{"failover, bulk", Fabric::kHpnTiny, 8, {}, Script::kPortFailover},
           Case{"failover, per-step", Fabric::kHpnTiny, 8,
                with([](CclConfig& x) { x.bulk_rings = false; }), Script::kPortFailover},
           Case{"unreachable, bulk", Fabric::kHpnTiny, 8, {}, Script::kUnreachable},
           Case{"unreachable, per-step", Fabric::kHpnTiny, 8,
                with([](CclConfig& x) { x.bulk_rings = false; }), Script::kUnreachable},
           Case{"failover after done, bulk", Fabric::kHpnTiny, 8, {},
                Script::kFailoverAfterDone},
           Case{"failover after done, per-step", Fabric::kHpnTiny, 8,
                with([](CclConfig& x) { x.bulk_rings = false; }), Script::kFailoverAfterDone},
       }) {
    expect_same(c);
  }
}

TEST(CommunicatorDifferential, RailOnlyAllToAll) {
  const Case c{"rail-only all-to-all", Fabric::kRailOnlyTier2, 8, {}, Script::kRailOnly};
  expect_same(c);
  // The unroutable count is real: every cross-rail host pair is skipped.
  EXPECT_EQ(play<Communicator>(c).results[1], 8 * 7 * 8 * 7);
}

// ---- A communicator destroyed mid-flight ---------------------------------------

enum class Op { kAllReduce, kTreeAllReduce, kReduceScatter, kAllGather, kMultiAllReduce,
                kAllToAll, kPointToPoint };

template <typename Comm>
void start(Comm& comm, Op op, std::function<void()> done) {
  const DataSize size = DataSize::megabytes(24);
  switch (op) {
    case Op::kAllReduce:
    case Op::kTreeAllReduce: comm.all_reduce(size, std::move(done)); return;
    case Op::kReduceScatter: comm.reduce_scatter(size, std::move(done)); return;
    case Op::kAllGather: comm.all_gather(size, std::move(done)); return;
    case Op::kMultiAllReduce: comm.multi_all_reduce(size, std::move(done)); return;
    case Op::kAllToAll: comm.all_to_all(size, true, std::move(done)); return;
    case Op::kPointToPoint:
      comm.point_to_point(0, comm.world_size() - 1, size, std::move(done));
      return;
  }
}

/// Starts `op` twice, destroys the communicator after `events` simulator
/// events, then drains the session. The oracle's late span ends are dropped.
template <typename Comm>
Outcome destroyed(Op op, std::uint64_t events, bool bulk_rings, int& late_dones) {
  Rig rig{Fabric::kHpnTiny};
  CclConfig cfg;
  cfg.bulk_rings = bulk_rings;
  if (op == Op::kTreeAllReduce) cfg.algorithm = RingAlgorithm::kTree;
  auto comm = std::make_unique<Comm>(rig.cluster, rig.sim, rig.session, rig.conns, rig.ranks(6),
                                     cfg);
  bool dead = false;
  late_dones = 0;
  const auto done = [&] { late_dones += dead ? 1 : 0; };
  start(*comm, op, done);
  start(*comm, op, done);
  for (std::uint64_t i = 0; i < events && rig.sim.step(); ++i) {
  }
  comm.reset();
  dead = true;
  const std::size_t records_at_death = rig.sim.tracer().size();
  const std::int64_t dead_at = rig.sim.now().as_nanos();
  rig.sim.run();
  Outcome out;
  out.trace = trace_csv(rig.sim.tracer(), std::is_same_v<Comm, reference::Communicator>
                                              ? records_at_death
                                              : std::string::npos);
  out.results = {static_cast<std::int64_t>(rig.sim.processed_events()), dead_at};
  out.wqe_bits = wqe_bits(rig.conns);
  out.drained = rig.session.active_flows() == 0 && rig.sim.pending_events() == 0;
  return out;
}

void expect_destroyed_same(bool bulk_rings) {
  for (const Op op : {Op::kAllReduce, Op::kTreeAllReduce, Op::kReduceScatter, Op::kAllGather,
                      Op::kMultiAllReduce, Op::kAllToAll, Op::kPointToPoint}) {
    for (const std::uint64_t events : {0u, 3u, 40u, 400u}) {
      int late = 0;
      int oracle_late = 0;
      const Outcome got = destroyed<Communicator>(op, events, bulk_rings, late);
      const Outcome want =
          destroyed<reference::Communicator>(op, events, bulk_rings, oracle_late);
      const std::string name = std::string{bulk_rings ? "bulk" : "per-step"} +
                               " destroyed op " + std::to_string(static_cast<int>(op)) +
                               " after " + std::to_string(events) + " events";
      EXPECT_EQ(compare(name, got, want), 0);
      EXPECT_EQ(late, 0) << name << ": a done fired after the communicator died";
      // Every message's WQE bytes came back to the shared manager.
      for (const std::int64_t bits : got.wqe_bits) EXPECT_EQ(bits, 0) << name;
    }
  }
}

TEST(CommunicatorDifferential, DestroyedMidFlightEveryCollectivePerStepRings) {
  // Per-step rings keep a timer or a message of every rail in flight at all
  // times, so each destruction point leaves callbacks armed against a dead
  // communicator: the sanitizer jobs run this case for the dead path.
  expect_destroyed_same(/*bulk_rings=*/false);
}

TEST(CommunicatorDifferential, DestroyedMidFlightEveryCollectiveBulkRings) {
  // Bulk rings (the fleet's default) send every ring edge's messages at once
  // over cached connection sets; messages that drain after the death must
  // still close their records in the shared message table and return their
  // WQE bytes.
  expect_destroyed_same(/*bulk_rings=*/true);
}

}  // namespace
}  // namespace hpn::ccl
