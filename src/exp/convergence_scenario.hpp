// Fairness / convergence test (Fig. 10): five pre-established persistent
// connections into a 1 Gbps bottleneck (sender links 1.1 Gbps). Long
// trains start one by one every `stagger` seconds from 0.1 s and stop one
// by one in the same order from 12.1 s. Reports per-connection throughput
// series and the Jain fairness index during full overlap.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/telemetry.hpp"
#include "sim/time.hpp"
#include "stats/time_series.hpp"
#include "tcp/tcp_common.hpp"

namespace trim::exp {

struct ConvergenceConfig {
  tcp::Protocol protocol = tcp::Protocol::kReno;
  static constexpr int num_connections = 5;
  static constexpr sim::SimTime first_start = sim::SimTime::seconds(0.1);
  sim::SimTime stagger = sim::SimTime::seconds(2.0);  // start/stop interval
  static constexpr sim::SimTime bin = sim::SimTime::millis(100);
  std::uint64_t seed = 1;
};

struct ConvergenceResult {
  std::vector<stats::TimeSeries> per_flow_mbps;
  double jain_full_overlap = 0.0;  // during the all-flows-active window
  std::vector<double> full_overlap_mbps;  // per-flow mean in that window
  sim::SimTime run_end;

  // Deterministic run telemetry (metrics + event counts).
  obs::TelemetrySnapshot telemetry;
};

ConvergenceResult run_convergence(const ConvergenceConfig& cfg);

}  // namespace trim::exp
