#include "metrics/timeseries.h"

#include <gtest/gtest.h>

namespace hpn::metrics {
namespace {

TimePoint at_ms(std::int64_t ms) { return TimePoint::at_nanos(ms * 1'000'000); }

TEST(TimeSeries, RecordsInOrder) {
  TimeSeries ts{"x"};
  ts.record(at_ms(1), 10);
  ts.record(at_ms(2), 20);
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_THROW(ts.record(at_ms(1), 5), CheckError);
}

TEST(TimeSeries, MeanOverWindow) {
  TimeSeries ts;
  for (int i = 0; i < 10; ++i) ts.record(at_ms(i), i);
  EXPECT_DOUBLE_EQ(ts.mean_over(at_ms(0), at_ms(10)), 4.5);
  EXPECT_DOUBLE_EQ(ts.mean_over(at_ms(2), at_ms(4)), 2.5);
  EXPECT_DOUBLE_EQ(ts.mean_over(at_ms(100), at_ms(200)), 0.0);
}

TEST(TimeSeries, Summary) {
  TimeSeries ts;
  ts.record(at_ms(0), 1);
  ts.record(at_ms(1), 3);
  const auto s = ts.summary();
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
}

}  // namespace
}  // namespace hpn::metrics
