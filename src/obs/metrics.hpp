// Metrics registry: named counters, gauges, and fixed-bucket histograms
// with O(1) hot-path updates.
//
// Each instrument is one plain type, both the live instrument and its
// snapshot value. The registry keeps them in name-ordered maps whose nodes
// never move, so registration (the name lookup) is the cold path —
// components look a metric up once and keep the returned handle, which
// stays valid for the registry's lifetime. The hot path is a single
// add/store through the handle.
//
// One registry per Simulator (owned by the obs::Telemetry bundle, which
// exp::World attaches), so parallel sweep jobs stay isolated: every run
// fills its own registry and the caller merges the resulting snapshots in
// submission order — deterministic at any REPRO_JOBS width.
//
// Export: snapshot() -> MetricsSnapshot (the same maps, copied), which
// merges; obs::RunReport writes it as a report's "metrics" section.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace trim::obs {

struct Counter {
  std::uint64_t value = 0;
  void inc(std::uint64_t n = 1) { value += n; }
  bool operator==(const Counter&) const = default;
};

struct Gauge {
  double value = 0.0;
  void set(double v) { value = v; }
  bool operator==(const Gauge&) const = default;
};

// Fixed-bucket histogram over [lo, hi) with under/overflow buckets and a
// running sum, so snapshots can report both distribution and mean.
struct Histogram {
  // Throws trim::ConfigError unless hi > lo and bins >= 1.
  Histogram(double lo, double hi, std::size_t bins);

  void observe(double v);  // O(1)
  bool operator==(const Histogram&) const = default;

  double lo = 0.0, hi = 0.0;
  double width = 0.0;  // (hi - lo) / bins.size()
  std::vector<std::uint64_t> bins;
  std::uint64_t underflow = 0, overflow = 0, count = 0;
  double sum = 0.0;
  // Largest observation (0 before any), tracked exactly so percentile
  // extraction can report a true max, not a bin edge.
  double max = 0.0;
};

template <typename T>
using ByName = std::map<std::string, T, std::less<>>;

struct MetricsSnapshot {
  ByName<Counter> counters;
  ByName<Gauge> gauges;
  ByName<Histogram> histograms;

  // Union by name: counters add, gauges keep the maximum (documented
  // convention — merged runs report the peak), histograms add bucket-wise
  // (shapes must match; a mismatched shape keeps the first operand).
  void merge(const MetricsSnapshot& other);

  bool operator==(const MetricsSnapshot&) const = default;
};

/// The headline quantiles of one histogram: p50/p90/p99 are interpolated
// linearly inside the covering bin (underflow resolves to `lo`, overflow
// to the exact max); `max` is the exactly-tracked largest observation.
// This is the one latency-summary shape benches print, replacing each
// bench's hand-rolled CDF math.
struct Percentiles {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

Percentiles percentiles(const Histogram& h);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create; the returned handle is stable for the registry's
  // lifetime. Re-registering a histogram name with a different shape
  // throws trim::ConfigError.
  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Histogram* histogram(std::string_view name, double lo, double hi,
                       std::size_t bins);

  MetricsSnapshot snapshot() const { return live_; }

 private:
  MetricsSnapshot live_;
};

}  // namespace trim::obs
