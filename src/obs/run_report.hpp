// Run reports: one REPORT_<name>.json per experiment binary, combining
//   - "scalars": headline numbers the bench already prints (goodput,
//     completion times, drop counts),
//   - "metrics": the merged deterministic MetricsSnapshot,
//   - "events": nonzero flight-recorder counts by kind,
//   - "flows": per-flow summaries (capped; see flows_truncated),
//   - "rows": per-scenario result rows (sweep points),
//   - "series": the curves a figure plots (time series and CDFs), each a
//     name, two column names and its points,
//   - "perf": wall-clock measurement rows {scenario, items_per_sec, ...},
//   - "profile": wall-time phases from obs::Profiler.
// "perf", "profile" and the header's peak_rss_bytes and hw_threads are the
// only nondeterministic parts; everything else is byte-identical across
// REPRO_JOBS widths and repeated runs, so reports diff cleanly once those
// are set aside.
//
// The file lands in $BENCH_JSON_DIR when set, else bench_out/.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "stats/cdf.hpp"
#include "stats/time_series.hpp"

namespace trim::obs {

// Per-flow roll-up for the "flows" section. Fields mirror tcp::FlowStats
// plus the scenario's own completion metrics; -1 marks "not applicable"
// for flows that never finish (long-running background load).
struct FlowSummary {
  std::uint32_t flow = 0;
  std::string protocol;
  double goodput_mbps = -1.0;
  double completion_s = -1.0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
};

class RunReport {
 public:
  // Reports keep at most this many per-flow summaries; the remainder is
  // reported as the "flows_truncated" count (large-scale runs have tens
  // of thousands of flows — the report stays a report, not a dump).
  static constexpr std::size_t kMaxFlows = 256;

  explicit RunReport(std::string name) : name_{std::move(name)} {}

  const std::string& name() const { return name_; }

  void set_telemetry(TelemetrySnapshot snapshot) {
    telemetry_ = std::move(snapshot);
  }
  void set_profile(std::vector<PhaseSnapshot> profile) {
    profile_ = std::move(profile);
  }
  void add_scalar(std::string key, double value) {
    scalars_.emplace_back(std::move(key), value);
  }
  void add_flow(FlowSummary flow);
  std::size_t flows_truncated() const { return flows_truncated_; }

  // One per-scenario row (a sweep point): a label plus key/value pairs.
  // Deterministic results only; wall-clock numbers go through add_perf.
  void add_row(std::string scenario,
               std::vector<std::pair<std::string, double>> values) {
    rows_.push_back({std::move(scenario), std::move(values)});
  }

  // One curve for the "series" section. A time series becomes
  // (time_s, value_column) points, one per sample; a CDF becomes
  // (value_column, cum_prob) points over its sorted samples, the i-th
  // (0-based) of n at probability (i+1)/n.
  void add_series(std::string name, const stats::TimeSeries& series,
                  std::string value_column);
  void add_cdf(std::string name, const stats::Cdf& cdf, std::string value_column);

  // One wall-clock measurement row for the "perf" section: a throughput
  // (the column the perf-regression gate reads) plus any other timing.
  void add_perf(std::string scenario, double items_per_sec,
                std::vector<std::pair<std::string, double>> values = {}) {
    values.emplace(values.begin(), "items_per_sec", items_per_sec);
    perf_.push_back({std::move(scenario), std::move(values)});
  }

  std::string to_json() const;

  // Writes REPORT_<name>.json; returns the path, or "" on failure (the
  // failure is warned through the sim logging sink, never fatal — report
  // writing must not fail a bench on a read-only directory).
  std::string write() const;

 private:
  struct Row {
    std::string scenario;
    std::vector<std::pair<std::string, double>> values;
  };

  struct Series {
    std::string name;
    std::string x_column;
    std::string y_column;
    std::vector<std::pair<double, double>> points;
  };

  std::string name_;
  TelemetrySnapshot telemetry_;
  std::vector<PhaseSnapshot> profile_;
  std::vector<std::pair<std::string, double>> scalars_;
  std::vector<FlowSummary> flows_;
  std::size_t flows_truncated_ = 0;
  std::vector<Row> rows_;
  std::vector<Series> series_;
  std::vector<Row> perf_;
};

// Where report-shaped artifacts land: $BENCH_JSON_DIR, else "bench_out".
// Shared with the TRIM_TRACE export (trace_export.hpp) so traces sit next
// to the reports they explain.
std::string report_output_dir();

// Peak resident set size of this process in bytes (VmHWM from
// /proc/self/status; 0 if unreadable). Not getrusage(RUSAGE_SELF), whose
// peak Linux carries across execve: a bench started by a larger launcher
// would report the launcher's peak.
double peak_rss_bytes();

}  // namespace trim::obs
