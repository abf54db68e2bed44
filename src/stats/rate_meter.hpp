// Binned throughput meter: accumulates bytes into fixed-width time bins and
// reports Mbps per bin. Used for the paper's throughput plots
// (Figs. 4(a), 6(a), 10).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "stats/time_series.hpp"

namespace trim::stats {

class RateMeter {
 public:
  explicit RateMeter(sim::SimTime bin_width) : bin_width_{bin_width} {}

  void add(sim::SimTime at, std::uint64_t bytes);

  // One sample per bin at the bin's start time; value in Mbps.
  TimeSeries series_mbps() const;

  // Mean rate over [from, to) in Mbps, straight from the raw byte count.
  double mean_mbps(sim::SimTime from, sim::SimTime to) const;

  std::uint64_t total_bytes() const { return total_bytes_; }
  sim::SimTime bin_width() const { return bin_width_; }

 private:
  sim::SimTime bin_width_;
  std::vector<std::uint64_t> bins_;  // bytes per bin, index = t / bin_width
  std::uint64_t total_bytes_ = 0;
};

}  // namespace trim::stats
