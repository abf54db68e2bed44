// The Sec. II-B motivation experiment, reused for Figs. 4 (TCP Reno) and 6
// (TCP-TRIM):
//   5 servers -> switch(100 pkt) -> front-end, 1 Gbps / 50 us links.
//   From 0.1 s each server sends 200 responses of 2-10 KB with ~1 ms mean
//   spacing; at 0.5 s every server sends a long train (>128 KB) on the
//   same persistent connection. RTO = 200 ms, MSS = 1460 B.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/telemetry.hpp"
#include "stats/time_series.hpp"
#include "tcp/tcp_common.hpp"

namespace trim::exp {

struct ImpairmentConfig {
  tcp::Protocol protocol = tcp::Protocol::kReno;
  static constexpr int num_servers = 5;
  static constexpr int responses_per_server = 200;
  static constexpr std::uint64_t response_min_bytes = 2 * 1024;
  static constexpr std::uint64_t response_max_bytes = 10 * 1024;
  static constexpr sim::SimTime response_mean_gap = sim::SimTime::millis(1);
  static constexpr sim::SimTime response_start = sim::SimTime::seconds(0.1);
  static constexpr sim::SimTime lpt_start = sim::SimTime::seconds(0.5);
  static constexpr std::uint64_t lpt_bytes = 100 * 1460;  // > 128 KB
  static constexpr sim::SimTime run_until = sim::SimTime::seconds(1.5);
  std::uint64_t seed = 1;
};

struct ImpairmentResult {
  // Bottleneck (switch -> front-end) throughput, 10 ms bins, Mbps.
  stats::TimeSeries throughput_mbps;
  // Congestion-window evolution of the last connection ("connection 5").
  stats::TimeSeries cwnd_last_conn;
  // Switch egress queue occupancy (packets).
  stats::TimeSeries queue_trace;
  std::vector<std::uint64_t> timeouts_per_conn;
  std::vector<double> cwnd_at_lpt_start;  // the "inherited" windows
  std::uint64_t total_drops = 0;
  sim::SimTime last_lpt_completion;       // zero if any LPT unfinished
  bool all_completed = false;

  // Deterministic run telemetry (metrics + event counts).
  obs::TelemetrySnapshot telemetry;
};

ImpairmentResult run_impairment(const ImpairmentConfig& cfg);

}  // namespace trim::exp
