#include "metrics/timeseries.h"

#include <algorithm>

#include "common/check.h"

namespace hpn::metrics {

void TimeSeries::record(TimePoint at, double value) {
  HPN_CHECK_MSG(points_.empty() || at >= points_.back().at,
                "time series must be recorded in order");
  points_.push_back({at, value});
}

namespace {

auto lower(const std::vector<TimeSeries::Point>& pts, TimePoint t) {
  return std::lower_bound(pts.begin(), pts.end(), t,
                          [](const TimeSeries::Point& p, TimePoint v) { return p.at < v; });
}

}  // namespace

double TimeSeries::mean_over(TimePoint from, TimePoint to) const {
  auto it = lower(points_, from);
  double sum = 0.0;
  std::size_t n = 0;
  for (; it != points_.end() && it->at < to; ++it) {
    sum += it->value;
    ++n;
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

RunningStats TimeSeries::summary() const {
  RunningStats s;
  for (const auto& p : points_) s.add(p.value);
  return s;
}

}  // namespace hpn::metrics
