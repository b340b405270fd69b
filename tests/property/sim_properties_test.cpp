// Property tests for the event engine and the hash layer: determinism,
// ordering, and distribution quality under randomized inputs.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "metrics/stats.h"
#include "routing/hash.h"
#include "sim/simulator.h"

namespace hpn {
namespace {

class SimOrdering : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimOrdering, RandomScheduleExecutesInNonDecreasingTimeOrder) {
  Rng rng{GetParam()};
  sim::Simulator s;
  std::vector<std::int64_t> fired;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    const auto at = TimePoint::at_nanos(rng.uniform_int(0, 10'000));
    s.schedule_at(at, [&fired, &s] { fired.push_back(s.now().as_nanos()); });
  }
  s.run();
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(n));
  for (std::size_t i = 1; i < fired.size(); ++i) EXPECT_LE(fired[i - 1], fired[i]);
}

TEST_P(SimOrdering, CancellationNeverFiresAndOthersAllDo) {
  Rng rng{GetParam()};
  sim::Simulator s;
  int fired = 0, cancelled_fired = 0;
  std::vector<sim::EventId> to_cancel;
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    const bool cancel = rng.bernoulli(0.3);
    const auto id = s.schedule_at(TimePoint::at_nanos(rng.uniform_int(1, 5'000)),
                                  [&fired, &cancelled_fired, cancel] {
                                    if (cancel) ++cancelled_fired;
                                    ++fired;
                                  });
    if (cancel) to_cancel.push_back(id);
  }
  for (const auto id : to_cancel) s.cancel(id);
  s.run();
  EXPECT_EQ(cancelled_fired, 0);
  EXPECT_EQ(fired, n - static_cast<int>(to_cancel.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimOrdering, ::testing::Values(1u, 17u, 23u, 99u));

class HashQuality : public ::testing::TestWithParam<int> {};

TEST_P(HashQuality, UniformityOverSourcePorts) {
  // For any candidate count, sweeping the sport must spread selections
  // nearly uniformly (chi-squared-ish bound): this is the property RePaC's
  // small search budgets rely on.
  const int n = GetParam();
  routing::EcmpHasher h{routing::HashConfig{.seeds = routing::SeedPolicy::kIdentical}};
  std::map<std::size_t, int> counts;
  const int samples = 8'192;
  for (int i = 0; i < samples; ++i) {
    const routing::FiveTuple ft{.src_ip = 77, .dst_ip = 99,
                                .src_port = static_cast<std::uint16_t>(i)};
    counts[h.select_crc(routing::tuple_crc(ft), NodeId{42}, static_cast<std::size_t>(n))] += 1;
  }
  EXPECT_EQ(static_cast<int>(counts.size()), n);
  const double expect = static_cast<double>(samples) / n;
  for (const auto& [idx, count] : counts) {
    EXPECT_NEAR(count, expect, expect * 0.35) << "bucket " << idx;
  }
}

INSTANTIATE_TEST_SUITE_P(Fanouts, HashQuality, ::testing::Values(2, 4, 8, 15, 60),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           std::string name = "n";
                           name += std::to_string(param_info.param);
                           return name;
                         });

}  // namespace
}  // namespace hpn
