// Time-stamped measurement series with windowed aggregation, used by every
// figure that plots a quantity over time (Figs 2, 13, 14, 15, 18).
#pragma once

#include <string>
#include <vector>

#include "common/units.h"
#include "metrics/stats.h"

namespace hpn::metrics {

class TimeSeries {
 public:
  struct Point {
    TimePoint at;
    double value = 0.0;
  };

  explicit TimeSeries(std::string name = {}) : name_{std::move(name)} {}

  void record(TimePoint at, double value);
  void clear() { points_.clear(); }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<Point>& points() const { return points_; }
  [[nodiscard]] bool empty() const { return points_.empty(); }
  [[nodiscard]] std::size_t size() const { return points_.size(); }

  /// Mean value over [from, to), treating points as instantaneous samples.
  [[nodiscard]] double mean_over(TimePoint from, TimePoint to) const;

  /// Summary over all recorded values.
  [[nodiscard]] RunningStats summary() const;

 private:
  std::string name_;
  std::vector<Point> points_;  // strictly non-decreasing timestamps
};

}  // namespace hpn::metrics
