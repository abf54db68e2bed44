// Helpers shared by the figure-reproduction binaries.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>

#include "exp/experiment.hpp"
#include "obs/run_report.hpp"
#include "stats/table.hpp"
#include "stats/time_series.hpp"

namespace trim::bench {

// Render a (downsampled) time series as compact "t=..s v=.." rows — the
// textual stand-in for the paper's line plots.
inline void print_series(const std::string& title, const stats::TimeSeries& series,
                         std::size_t max_points = 24, const char* unit = "") {
  std::printf("%s\n", title.c_str());
  if (series.empty()) {
    std::printf("  (no samples)\n");
    return;
  }
  // Aggregate each group of samples by its maximum so narrow spikes (the
  // paper's bursts and sawteeth) survive the downsampling.
  const auto samples = series.samples();
  const std::size_t stride = (samples.size() + max_points - 1) / max_points;
  for (std::size_t i = 0; i < samples.size(); i += stride) {
    double peak = samples[i].value;
    for (std::size_t j = i; j < std::min(i + stride, samples.size()); ++j) {
      peak = std::max(peak, samples[j].value);
    }
    std::printf("  t=%8.4fs  %10.2f%s\n", samples[i].at.to_seconds(), peak, unit);
  }
}

// Wall-clock seconds elapsed since `t0`.
inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

inline std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

// Merge the deterministic telemetry of a range of scenario results (each
// carrying a `telemetry` member) into `report`, in range order — the same
// submission order run_parallel uses, so the merged snapshot is identical
// at any REPRO_JOBS width.
template <typename ResultRange>
inline void merge_telemetry(obs::RunReport& report, const ResultRange& results) {
  obs::TelemetrySnapshot tele;
  for (const auto& r : results) tele.merge(r.telemetry);
  report.set_telemetry(std::move(tele));
}

// Attach the global sweep profile and write REPORT_<name>.json. Benches
// call this once, at the end of main, so the report's peak RSS covers the
// whole run.
inline std::string finish_report(obs::RunReport& report) {
  report.set_profile(obs::sweep_profiler().snapshot());
  return report.write();
}

}  // namespace trim::bench
