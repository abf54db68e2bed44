#include "stats/rate_meter.hpp"

#include <stdexcept>

namespace trim::stats {

void RateMeter::add(sim::SimTime at, std::uint64_t bytes) {
  if (at < sim::SimTime::zero()) throw std::invalid_argument("RateMeter::add: negative time");
  const auto idx = static_cast<std::size_t>(at.ns() / bin_width_.ns());
  if (idx >= bins_.size()) bins_.resize(idx + 1, 0);
  bins_[idx] += bytes;
  total_bytes_ += bytes;
}

TimeSeries RateMeter::series_mbps() const {
  TimeSeries out;
  const double bin_s = bin_width_.to_seconds();
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    const double mbps = static_cast<double>(bins_[i]) * 8.0 / bin_s / 1e6;
    out.record(bin_width_ * static_cast<std::int64_t>(i), mbps);
  }
  return out;
}

double RateMeter::mean_mbps(sim::SimTime from, sim::SimTime to) const {
  if (to <= from) throw std::invalid_argument("RateMeter::mean_mbps: empty interval");
  std::uint64_t bytes = 0;
  const auto lo = static_cast<std::uint64_t>(from.ns() / bin_width_.ns());
  const auto hi =
      static_cast<std::uint64_t>((to.ns() + bin_width_.ns() - 1) / bin_width_.ns());
  for (std::uint64_t i = lo; i < hi && i < bins_.size(); ++i) {
    bytes += bins_[static_cast<std::size_t>(i)];
  }
  return static_cast<double>(bytes) * 8.0 / (to - from).to_seconds() / 1e6;
}

}  // namespace trim::stats
