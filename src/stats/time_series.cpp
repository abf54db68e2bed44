#include "stats/time_series.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace trim::stats {

void TimeSeries::record(sim::SimTime at, double value) {
  samples_.push_back({at, value});
}

double TimeSeries::max_value() const {
  if (empty()) throw std::logic_error("TimeSeries::max_value on empty series");
  double m = samples_.front().value;
  for (std::size_t i = 1; i < size(); ++i) m = std::max(m, samples_[i].value);
  return m;
}

double TimeSeries::min_value() const {
  if (empty()) throw std::logic_error("TimeSeries::min_value on empty series");
  double m = samples_.front().value;
  for (std::size_t i = 1; i < size(); ++i) m = std::min(m, samples_[i].value);
  return m;
}

double TimeSeries::time_weighted_mean() const {
  if (empty()) throw std::logic_error("TimeSeries::time_weighted_mean on empty series");
  if (size() == 1) return samples_.front().value;
  double area = 0.0;
  for (std::size_t i = 0; i + 1 < size(); ++i) {
    const double dt = (samples_[i + 1].at - samples_[i].at).to_seconds();
    area += samples_[i].value * dt;
  }
  const double span = (samples_.back().at - samples_.front().at).to_seconds();
  if (span <= 0.0) return samples_.front().value;
  return area / span;
}

double TimeSeries::value_at(sim::SimTime t) const {
  if (empty()) return 0.0;
  if (t < samples_.front().at) return samples_.front().value;
  // Binary search for the last sample at or before t.
  std::size_t lo = 0, hi = size();  // invariant: samples_[lo].at <= t < samples_[hi].at
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (samples_[mid].at <= t) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return samples_[lo].value;
}

TimeSeries TimeSeries::downsampled(std::size_t max_points) const {
  if (max_points == 0 || size() <= max_points) return *this;
  TimeSeries out;
  const std::size_t stride = (size() + max_points - 1) / max_points;
  for (std::size_t i = 0; i < size(); i += stride) {
    out.record(samples_[i].at, samples_[i].value);
  }
  // The endpoint must survive: a trace that ends on a spike would
  // otherwise lose its final excursion to the stride.
  if ((size() - 1) % stride != 0) {
    out.record(samples_.back().at, samples_.back().value);
  }
  return out;
}

}  // namespace trim::stats
