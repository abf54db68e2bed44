// Simulated stand-ins for the paper's real-testbed experiments (Fig. 13).
// The DELL testbed is replaced by simulated hosts at the same link speeds;
// the TCP-TRIM kernel patch's observable behavior is Algorithms 1-2, which
// core::TrimSender implements exactly (substitution documented in
// DESIGN.md §5).
//
// (a) ARCT test: two background senders stream large files over a
//     100 Mbps many-to-one while a third sends 100 responses of a given
//     mean size (±10%); metric = average response completion time.
// (b-e) Web-service test: four senders deliver responses drawn from the
//     Fig. 2 size/gap distributions over 1 Gbps links (4000 responses
//     total); metrics = completion-time scatter for 64-256 KB responses
//     and the full completion-time CDF.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/telemetry.hpp"
#include "net/network.hpp"
#include "sim/time.hpp"
#include "stats/cdf.hpp"
#include "tcp/tcp_common.hpp"

namespace trim::exp {

struct ArctConfig {
  tcp::Protocol protocol = tcp::Protocol::kCubic;
  std::uint64_t mean_response_bytes = 64 * 1024;  // paper sweeps 32 KB..1 MB
  int num_responses = 100;
  static constexpr int background_senders = 2;
  std::uint64_t link_bps = 100 * net::kMbps;
  static constexpr sim::SimTime think_time = sim::SimTime::millis(5);  // between responses
  std::uint64_t seed = 1;
};

struct ArctResult {
  double arct_ms = 0.0;
  double max_ms = 0.0;
  int completed = 0;
  std::uint64_t timeouts = 0;

  // Deterministic run telemetry (metrics + event counts).
  obs::TelemetrySnapshot telemetry;
};

ArctResult run_arct(const ArctConfig& cfg);

struct WebServiceConfig {
  tcp::Protocol protocol = tcp::Protocol::kCubic;
  static constexpr int num_servers = 4;
  int responses_per_server = 1000;  // paper: 4000 total
  std::uint64_t seed = 1;
};

struct ResponseSample {
  std::uint64_t bytes;
  double completion_ms;
};

struct WebServiceResult {
  std::vector<ResponseSample> samples;   // all completed responses
  stats::Cdf completion_cdf_ms;          // Fig. 13(e)
  double arct_ms = 0.0;
  int completed = 0;
  int total = 0;
  std::uint64_t timeouts = 0;

  // Fig. 13(b-d) focus: responses of 64-256 KB.
  stats::Cdf mid_band_ms() const;

  // Deterministic run telemetry (metrics + event counts).
  obs::TelemetrySnapshot telemetry;
};

WebServiceResult run_web_service(const WebServiceConfig& cfg);

}  // namespace trim::exp
