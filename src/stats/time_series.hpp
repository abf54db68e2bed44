// Append-only (time, value) series used for traces such as queue length or
// congestion-window evolution (paper Figs. 4, 6, 9(a)). Samples live in
// one vector: appends are amortized O(1), and `samples()` is a view of it.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sim/time.hpp"

namespace trim::stats {

class TimeSeries {
 public:
  struct Sample {
    sim::SimTime at;
    double value;
  };

  void record(sim::SimTime at, double value);

  // Contiguous view of all samples, oldest first.
  std::span<const Sample> samples() const { return samples_; }
  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double max_value() const;
  double min_value() const;
  // Time-weighted mean over [first sample, last sample], treating the
  // series as a step function (value holds until the next sample). This is
  // the right integral for queue-length averages.
  double time_weighted_mean() const;
  // Value at time t (step interpolation); samples must be time-ordered.
  // Empty series: 0.0. Before the first sample: the first value.
  double value_at(sim::SimTime t) const;

  // Downsample to ~`max_points` by keeping every k-th sample plus the
  // final one (so the trace's endpoint survives); may return max_points+1
  // samples. `max_points == 0` means no limit (returns a copy).
  TimeSeries downsampled(std::size_t max_points) const;

 private:
  std::vector<Sample> samples_;
};

}  // namespace trim::stats
