// Metrics registry: named counters, gauges, and fixed-bucket histograms
// with O(1) hot-path updates.
//
// Registration (the name lookup) is the cold path — components look a
// metric up once and keep the returned handle, which stays valid for the
// registry's lifetime (instruments live in deques and never move). The
// hot path is a single add/store through the handle.
//
// One registry per Simulator (owned by the obs::Telemetry bundle, which
// exp::World attaches), so parallel sweep jobs stay isolated: every run
// fills its own registry and the caller merges the resulting snapshots in
// submission order — deterministic at any REPRO_JOBS width.
//
// Export: snapshot() -> MetricsSnapshot (plain data, sorted by name),
// which merges and serializes to JSON (run reports).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace trim::obs {

struct Counter {
  std::uint64_t value = 0;
  void inc(std::uint64_t n = 1) { value += n; }
};

struct Gauge {
  double value = 0.0;
  void set(double v) { value = v; }
};

// Fixed-bucket histogram over [lo, hi) with under/overflow buckets and a
// running sum, so snapshots can report both distribution and mean.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void observe(double v);  // O(1)

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  std::size_t bin_count() const { return bins_.size(); }
  std::uint64_t bin(std::size_t i) const { return bins_[i]; }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  // Largest observed value (0 before any observation), tracked exactly so
  // percentile extraction can report a true max, not a bin edge.
  double max_value() const { return count_ > 0 ? max_ : 0.0; }

 private:
  friend class MetricsRegistry;
  double lo_, hi_, width_;
  std::vector<std::uint64_t> bins_;
  std::uint64_t underflow_ = 0, overflow_ = 0, count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

// ---- snapshot: plain data, sorted by name, mergeable ----

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  double lo = 0.0, hi = 0.0;
  std::vector<std::uint64_t> bins;
  std::uint64_t underflow = 0, overflow = 0, count = 0;
  double sum = 0.0;
  double max = 0.0;  // exact largest observation (0 when count == 0)
};

struct MetricsSnapshot {
  std::vector<CounterSample> counters;      // each vector sorted by name
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  // Union by name: counters add, gauges keep the maximum (documented
  // convention — merged runs report the peak), histograms add bucket-wise
  // (shapes must match; a mismatched shape keeps the first operand).
  void merge(const MetricsSnapshot& other);

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  // The {"counters":{...},"gauges":{...},"histograms":{...}} object,
  // indented by `indent` spaces per level starting at `depth`.
  std::string to_json(int indent = 2, int depth = 0) const;
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

Percentiles percentiles(const HistogramSample& h);
Percentiles percentiles(const Histogram& h);

// The sample named `name` in a snapshot, or nullptr. Benches use this to
// pull a scenario-recorded latency histogram out of merged telemetry.
const HistogramSample* find_histogram(const MetricsSnapshot& snapshot,
                                      std::string_view name);

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

  std::size_t instrument_count() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  MetricsSnapshot snapshot() const;

 private:
  // Deques give handle stability; the maps give sorted, by-name access.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::map<std::string, Counter*, std::less<>> counter_index_;
  std::map<std::string, Gauge*, std::less<>> gauge_index_;
  std::map<std::string, Histogram*, std::less<>> histogram_index_;
};

}  // namespace trim::obs
