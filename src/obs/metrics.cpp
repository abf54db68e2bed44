#include "obs/metrics.hpp"

#include <algorithm>

#include "sim/config_error.hpp"

namespace trim::obs {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo{lo}, hi{hi}, width{(hi - lo) / static_cast<double>(bins)}, bins(bins, 0) {
  if (!(hi > lo) || bins == 0) {
    throw ConfigError{"bad histogram shape", "obs::Histogram",
                      "hi > lo and bins >= 1"};
  }
}

void Histogram::observe(double v) {
  ++count;
  sum += v;
  if (count == 1 || v > max) max = v;
  if (v < lo) {
    ++underflow;
  } else if (v >= hi) {
    ++overflow;
  } else {
    auto idx = static_cast<std::size_t>((v - lo) / width);
    if (idx >= bins.size()) idx = bins.size() - 1;  // float edge at hi
    ++bins[idx];
  }
}

namespace {

template <typename T, typename... Args>
T* find_or_add(ByName<T>& map, std::string_view name, Args... args) {
  auto it = map.find(name);
  if (it == map.end()) it = map.try_emplace(std::string{name}, args...).first;
  return &it->second;
}

}  // namespace

Counter* MetricsRegistry::counter(std::string_view name) {
  return find_or_add(live_.counters, name);
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  return find_or_add(live_.gauges, name);
}

Histogram* MetricsRegistry::histogram(std::string_view name, double lo, double hi,
                                      std::size_t bins) {
  Histogram* h = find_or_add(live_.histograms, name, lo, hi, bins);
  if (h->lo != lo || h->hi != hi || h->bins.size() != bins) {
    throw ConfigError{"histogram re-registered with a different shape",
                      "MetricsRegistry::histogram(" + std::string{name} + ")",
                      "same lo/hi/bins as the first registration"};
  }
  return h;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, c] : other.counters) counters[name].value += c.value;
  for (const auto& [name, g] : other.gauges) {
    const auto [it, added] = gauges.try_emplace(name, g);
    if (!added) it->second.value = std::max(it->second.value, g.value);
  }
  for (const auto& [name, b] : other.histograms) {
    const auto [it, added] = histograms.try_emplace(name, b);
    Histogram& a = it->second;
    if (added || a.lo != b.lo || a.hi != b.hi || a.bins.size() != b.bins.size()) {
      continue;  // new name, or mismatched shape: keep the first operand
    }
    for (std::size_t k = 0; k < a.bins.size(); ++k) a.bins[k] += b.bins[k];
    a.underflow += b.underflow;
    a.overflow += b.overflow;
    a.count += b.count;
    a.sum += b.sum;
    a.max = std::max(a.max, b.max);
  }
}

namespace {

// Nearest-rank quantile with linear interpolation inside the covering
// bin. Ranks landing in the underflow region resolve to `lo` (the best
// bound the histogram has); ranks in the overflow region resolve to the
// exact tracked max.
double quantile_of(const Histogram& h, double q) {
  std::uint64_t rank = static_cast<std::uint64_t>(
      q * static_cast<double>(h.count) + 0.5);
  if (rank < 1) rank = 1;
  if (rank > h.count) rank = h.count;
  if (rank <= h.underflow) return h.lo;
  std::uint64_t cum = h.underflow;
  for (std::size_t i = 0; i < h.bins.size(); ++i) {
    const std::uint64_t n = h.bins[i];
    if (rank <= cum + n) {
      const double frac =
          n == 0 ? 1.0
                 : static_cast<double>(rank - cum) / static_cast<double>(n);
      const double v = h.lo + (static_cast<double>(i) + frac) * h.width;
      // Never report beyond the exact max (a lone sample early in a wide
      // bin would otherwise round up to the bin edge past it).
      return std::min(v, h.max);
    }
    cum += n;
  }
  return h.max;  // overflow region
}

}  // namespace

Percentiles percentiles(const Histogram& h) {
  Percentiles p;
  if (h.count == 0) return p;
  p.p50 = quantile_of(h, 0.50);
  p.p90 = quantile_of(h, 0.90);
  p.p99 = quantile_of(h, 0.99);
  p.max = h.max;
  return p;
}

}  // namespace trim::obs
