// Append-only (time, value) series used for traces such as queue length or
// congestion-window evolution (paper Figs. 4, 6, 9(a)).
//
// Storage is chunked: samples live in fixed-size blocks that are allocated
// as the series grows, so recording never copies the history the way a
// reallocating vector would — appends on multi-million-event traces are
// O(1) worst case, not just amortized. `samples()` still hands out one
// contiguous span (flattened lazily and cached).
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
  std::span<const Sample> samples() const;
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

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
  static constexpr std::size_t kChunk = 4096;

  const Sample& at(std::size_t i) const {
    return chunks_[i / kChunk][i % kChunk];
  }

  std::vector<std::vector<Sample>> chunks_;
  std::size_t size_ = 0;

  // Lazy flatten cache backing samples(); rebuilt only when stale and the
  // series spans more than one chunk.
  mutable std::vector<Sample> flat_;
  mutable bool flat_stale_ = false;
};

}  // namespace trim::stats
