#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>

#include "sim/config_error.hpp"

namespace trim::obs {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_{lo}, hi_{hi}, width_{(hi - lo) / static_cast<double>(bins)} {
  if (!(hi > lo) || bins == 0) {
    throw ConfigError{"bad histogram shape", "obs::Histogram",
                      "hi > lo and bins >= 1"};
  }
  bins_.assign(bins, 0);
}

void Histogram::observe(double v) {
  ++count_;
  sum_ += v;
  if (count_ == 1 || v > max_) max_ = v;
  if (v < lo_) {
    ++underflow_;
  } else if (v >= hi_) {
    ++overflow_;
  } else {
    auto idx = static_cast<std::size_t>((v - lo_) / width_);
    if (idx >= bins_.size()) idx = bins_.size() - 1;  // float edge at hi
    ++bins_[idx];
  }
}

Counter* MetricsRegistry::counter(std::string_view name) {
  const auto it = counter_index_.find(name);
  if (it != counter_index_.end()) return it->second;
  counters_.emplace_back();
  return counter_index_.emplace(std::string{name}, &counters_.back()).first->second;
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  const auto it = gauge_index_.find(name);
  if (it != gauge_index_.end()) return it->second;
  gauges_.emplace_back();
  return gauge_index_.emplace(std::string{name}, &gauges_.back()).first->second;
}

Histogram* MetricsRegistry::histogram(std::string_view name, double lo, double hi,
                                      std::size_t bins) {
  const auto it = histogram_index_.find(name);
  if (it != histogram_index_.end()) {
    Histogram* h = it->second;
    if (h->lo() != lo || h->hi() != hi || h->bin_count() != bins) {
      throw ConfigError{"histogram re-registered with a different shape",
                        "MetricsRegistry::histogram(" + std::string{name} + ")",
                        "same lo/hi/bins as the first registration"};
    }
    return h;
  }
  histograms_.emplace_back(lo, hi, bins);
  return histogram_index_.emplace(std::string{name}, &histograms_.back())
      .first->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.counters.reserve(counter_index_.size());
  for (const auto& [name, c] : counter_index_) {
    snap.counters.push_back({name, c->value});
  }
  snap.gauges.reserve(gauge_index_.size());
  for (const auto& [name, g] : gauge_index_) {
    snap.gauges.push_back({name, g->value});
  }
  snap.histograms.reserve(histogram_index_.size());
  for (const auto& [name, h] : histogram_index_) {
    snap.histograms.push_back({name, h->lo(), h->hi(), h->bins_, h->underflow(),
                               h->overflow(), h->count(), h->sum(),
                               h->max_value()});
  }
  return snap;
}

namespace {

// Merge two by-name-sorted vectors in place via `combine(into, from)` for
// names present in both; names only in `other` are inserted.
template <typename Sample, typename Combine>
void merge_sorted(std::vector<Sample>& into, const std::vector<Sample>& other,
                  Combine combine) {
  std::vector<Sample> out;
  out.reserve(into.size() + other.size());
  std::size_t i = 0, j = 0;
  while (i < into.size() || j < other.size()) {
    if (j >= other.size() ||
        (i < into.size() && into[i].name < other[j].name)) {
      out.push_back(std::move(into[i++]));
    } else if (i >= into.size() || other[j].name < into[i].name) {
      out.push_back(other[j++]);
    } else {
      combine(into[i], other[j]);
      out.push_back(std::move(into[i]));
      ++i;
      ++j;
    }
  }
  into = std::move(out);
}

}  // namespace

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  merge_sorted(counters, other.counters,
               [](CounterSample& a, const CounterSample& b) { a.value += b.value; });
  merge_sorted(gauges, other.gauges, [](GaugeSample& a, const GaugeSample& b) {
    a.value = std::max(a.value, b.value);
  });
  merge_sorted(histograms, other.histograms,
               [](HistogramSample& a, const HistogramSample& b) {
                 if (a.lo != b.lo || a.hi != b.hi || a.bins.size() != b.bins.size()) {
                   return;  // mismatched shape: keep the first operand
                 }
                 for (std::size_t k = 0; k < a.bins.size(); ++k) {
                   a.bins[k] += b.bins[k];
                 }
                 a.underflow += b.underflow;
                 a.overflow += b.overflow;
                 a.count += b.count;
                 a.sum += b.sum;
                 a.max = std::max(a.max, b.max);
               });
}

namespace {

void pad(std::string& out, int n) { out.append(static_cast<std::size_t>(n), ' '); }

std::string num(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string num(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::string MetricsSnapshot::to_json(int indent, int depth) const {
  const int base = indent * depth;
  const int in1 = base + indent;
  const int in2 = in1 + indent;
  std::string out = "{\n";

  pad(out, in1);
  out += "\"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    pad(out, in2);
    out += "\"" + counters[i].name + "\": " + num(counters[i].value);
  }
  if (!counters.empty()) {
    out += "\n";
    pad(out, in1);
  }
  out += "},\n";

  pad(out, in1);
  out += "\"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    pad(out, in2);
    out += "\"" + gauges[i].name + "\": " + num(gauges[i].value);
  }
  if (!gauges.empty()) {
    out += "\n";
    pad(out, in1);
  }
  out += "},\n";

  pad(out, in1);
  out += "\"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const auto& h = histograms[i];
    out += i == 0 ? "\n" : ",\n";
    pad(out, in2);
    out += "\"" + h.name + "\": {\"lo\": " + num(h.lo) + ", \"hi\": " + num(h.hi) +
           ", \"count\": " + num(h.count) + ", \"sum\": " + num(h.sum) +
           ", \"max\": " + num(h.max) +
           ", \"underflow\": " + num(h.underflow) +
           ", \"overflow\": " + num(h.overflow) + ", \"bins\": [";
    for (std::size_t k = 0; k < h.bins.size(); ++k) {
      if (k != 0) out += ", ";
      out += num(h.bins[k]);
    }
    out += "]}";
  }
  if (!histograms.empty()) {
    out += "\n";
    pad(out, in1);
  }
  out += "}\n";

  pad(out, base);
  out += "}";
  return out;
}

namespace {

// Nearest-rank quantile with linear interpolation inside the covering
// bin. Ranks landing in the underflow region resolve to `lo` (the best
// bound the histogram has); ranks in the overflow region resolve to the
// exact tracked max.
double quantile_of(const HistogramSample& h, double q) {
  if (h.count == 0) return 0.0;
  const double width =
      (h.hi - h.lo) / static_cast<double>(h.bins.empty() ? 1 : h.bins.size());
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
      const double v = h.lo + (static_cast<double>(i) + frac) * width;
      // Never report beyond the exact max (a lone sample early in a wide
      // bin would otherwise round up to the bin edge past it).
      return h.max > 0.0 ? std::min(v, h.max) : v;
    }
    cum += n;
  }
  return h.max;  // overflow region
}

}  // namespace

Percentiles percentiles(const HistogramSample& h) {
  Percentiles p;
  if (h.count == 0) return p;
  p.p50 = quantile_of(h, 0.50);
  p.p90 = quantile_of(h, 0.90);
  p.p99 = quantile_of(h, 0.99);
  p.max = h.max;
  return p;
}

Percentiles percentiles(const Histogram& h) {
  HistogramSample s;
  s.lo = h.lo();
  s.hi = h.hi();
  s.bins.reserve(h.bin_count());
  for (std::size_t i = 0; i < h.bin_count(); ++i) s.bins.push_back(h.bin(i));
  s.underflow = h.underflow();
  s.overflow = h.overflow();
  s.count = h.count();
  s.sum = h.sum();
  s.max = h.max_value();
  return percentiles(s);
}

const HistogramSample* find_histogram(const MetricsSnapshot& snapshot,
                                      std::string_view name) {
  for (const auto& h : snapshot.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

}  // namespace trim::obs
