// Concurrency impairment (Fig. 5) and its TCP-TRIM counterpart (Fig. 7):
// many-to-one star, 0/1/2 long-train servers transmitting from 0.1 s to
// the end, plus N short-train servers that each burst one 10-packet SPT at
// 0.3 s. Metric: average / min / max completion time of the SPTs.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/run_report.hpp"
#include "sim/time.hpp"
#include "tcp/tcp_common.hpp"

namespace trim::exp {

struct ConcurrencyConfig {
  tcp::Protocol protocol = tcp::Protocol::kReno;
  int num_spt_servers = 4;
  int num_lpt_servers = 2;
  static constexpr std::uint32_t spt_packets = 10;  // 10 segments, paper Sec. II-B-2
  static constexpr sim::SimTime lpt_start = sim::SimTime::seconds(0.1);
  static constexpr sim::SimTime spt_start = sim::SimTime::seconds(0.3);
  sim::SimTime run_until = sim::SimTime::seconds(3.0);
  static constexpr sim::SimTime min_rto = sim::SimTime::millis(200);
  // The SPT connections are *persistent* and warm: before the burst they
  // carry small responses ("rebuild the previous many-to-one scenario"),
  // so legacy TCP inherits a large window into the 0.3 s burst — the
  // impairment under study. Warm-up runs from 0.1 s to just before the
  // burst.
  static constexpr int warmup_responses = 150;
  static constexpr std::uint64_t warmup_min_bytes = 2 * 1024;
  static constexpr std::uint64_t warmup_max_bytes = 10 * 1024;
  std::uint64_t seed = 1;
};

struct ConcurrencyResult {
  double act_ms = 0.0;   // mean SPT completion time
  double min_ms = 0.0;
  double max_ms = 0.0;
  std::uint64_t spt_timeouts = 0;   // across all SPT flows
  int completed_spts = 0;
  int total_spts = 0;

  // Deterministic run telemetry (metrics + event counts).
  obs::TelemetrySnapshot telemetry;
  // Per-flow roll-ups for the run report (capped at RunReport::kMaxFlows
  // by the report, not here).
  std::vector<obs::FlowSummary> flow_summaries;
};

ConcurrencyResult run_concurrency(const ConcurrencyConfig& cfg);

}  // namespace trim::exp
