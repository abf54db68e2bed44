#include "stats/time_series.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace trim::stats {

void TimeSeries::record(sim::SimTime at, double value) {
  if (size_ == chunks_.size() * kChunk) {
    chunks_.emplace_back();
    chunks_.back().reserve(kChunk);
  }
  chunks_[size_ / kChunk].push_back({at, value});
  ++size_;
  flat_stale_ = true;
}

std::span<const TimeSeries::Sample> TimeSeries::samples() const {
  if (chunks_.empty()) return {};
  if (chunks_.size() == 1) return {chunks_.front().data(), size_};
  if (flat_stale_) {
    flat_.clear();
    flat_.reserve(size_);
    for (const auto& chunk : chunks_) {
      flat_.insert(flat_.end(), chunk.begin(), chunk.end());
    }
    flat_stale_ = false;
  }
  return flat_;
}

double TimeSeries::max_value() const {
  if (empty()) throw std::logic_error("TimeSeries::max_value on empty series");
  double m = at(0).value;
  for (std::size_t i = 1; i < size_; ++i) m = std::max(m, at(i).value);
  return m;
}

double TimeSeries::min_value() const {
  if (empty()) throw std::logic_error("TimeSeries::min_value on empty series");
  double m = at(0).value;
  for (std::size_t i = 1; i < size_; ++i) m = std::min(m, at(i).value);
  return m;
}

double TimeSeries::time_weighted_mean() const {
  if (empty()) throw std::logic_error("TimeSeries::time_weighted_mean on empty series");
  if (size_ == 1) return at(0).value;
  double area = 0.0;
  for (std::size_t i = 0; i + 1 < size_; ++i) {
    const double dt = (at(i + 1).at - at(i).at).to_seconds();
    area += at(i).value * dt;
  }
  const double span = (at(size_ - 1).at - at(0).at).to_seconds();
  if (span <= 0.0) return at(0).value;
  return area / span;
}

double TimeSeries::value_at(sim::SimTime t) const {
  if (empty()) return 0.0;
  if (t < at(0).at) return at(0).value;
  // Binary search for the last sample at or before t.
  std::size_t lo = 0, hi = size_;  // invariant: at(lo).at <= t < at(hi).at
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (at(mid).at <= t) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return at(lo).value;
}

TimeSeries TimeSeries::downsampled(std::size_t max_points) const {
  if (max_points == 0 || size_ <= max_points) return *this;
  TimeSeries out;
  const std::size_t stride = (size_ + max_points - 1) / max_points;
  for (std::size_t i = 0; i < size_; i += stride) {
    out.record(at(i).at, at(i).value);
  }
  // The endpoint must survive: a trace that ends on a spike would
  // otherwise lose its final excursion to the stride.
  if ((size_ - 1) % stride != 0) {
    out.record(at(size_ - 1).at, at(size_ - 1).value);
  }
  return out;
}

}  // namespace trim::stats
