// Resilience under adverse networks: the paper's many-to-one HTTP
// scenario with a fault injector on the bottleneck.
//
// Each server sends a train of responses with an idle gap between them —
// long enough to exceed the RTT, so TCP-TRIM's inter-train probing
// (Algorithm 1) is exercised on every message — while the configured
// fault profile (link flaps, Bernoulli or Gilbert-Elliott loss,
// corruption, duplication, reordering, jitter) perturbs the bottleneck.
// The run reports goodput, timeout counts, completion, fault statistics,
// and — when the invariant checker is on — the violation count, which is
// how bench_resilience proves TRIM's aggression tuning does not break
// correctness when the network misbehaves.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/run_report.hpp"
#include "fault/fault_injector.hpp"
#include "fault/invariant_checker.hpp"
#include "tcp/lifecycle.hpp"
#include "tcp/listen_queue.hpp"
#include "tcp/tcp_common.hpp"

namespace trim::exp {

struct ResilienceConfig {
  tcp::Protocol protocol = tcp::Protocol::kReno;
  int num_servers = 5;
  // Gapped message train per server: `messages_per_server` responses of
  // `message_bytes`, spaced `message_gap` after the previous *write* (the
  // gap is what trips TRIM's gap detector).
  int messages_per_server = 20;
  static constexpr std::uint64_t message_bytes = 40 * 1460ull;
  static constexpr sim::SimTime message_gap = sim::SimTime::millis(20);
  sim::SimTime start = sim::SimTime::seconds(0.05);
  sim::SimTime run_until = sim::SimTime::seconds(3.0);
  sim::SimTime min_rto = sim::SimTime::millis(200);
  std::uint64_t seed = 1;

  // Fault profile for the bottleneck (switch -> front-end) link; an
  // all-default FaultConfig means a clean network.
  fault::FaultConfig bottleneck_fault;

  // Connection churn: every message rides its own fresh connection — full
  // SYN handshake through the front end's shared listen backlog, FIN
  // teardown, endpoints destroyed once CLOSED — instead of one long-lived
  // flow per server. This is the short-connection regime of the paper's
  // highly concurrent HTTP workload, and it turns the resilience matrix
  // into a lifecycle soak test: faults now hit SYNs and FINs, not just
  // data. An aborted connection forfeits its message (messages_completed
  // counts graceful closes only).
  bool churn = false;
  tcp::ListenQueueConfig churn_backlog;  // shared by the front end
  tcp::LifecycleConfig lifecycle;       // both endpoints of every connection
};

// Throws trim::ConfigError (with what/where/valid-range) on a malformed
// config; run_resilience calls it first.
void validate(const ResilienceConfig& cfg);

struct ResilienceResult {
  // Application goodput at the front end: acked response bytes / active
  // time (start .. run_until).
  double goodput_mbps = 0.0;
  std::uint64_t total_timeouts = 0;
  std::uint64_t messages_completed = 0;
  std::uint64_t messages_total = 0;
  bool all_completed = false;
  // Churn-mode lifecycle totals (zeros when churn is off).
  std::uint64_t connections_opened = 0;
  std::uint64_t graceful_closes = 0;
  std::uint64_t aborted_closes = 0;
  std::uint64_t syn_retx = 0;
  std::uint64_t fin_retx = 0;
  std::uint64_t rst_sent = 0;
  tcp::ListenQueue::Stats churn_backlog;
  std::uint64_t queue_drops = 0;
  fault::FaultStats bottleneck_faults;
  // Invariant checker output (zeros when checking is disabled).
  std::uint64_t invariant_checkpoints = 0;
  std::uint64_t invariant_violations = 0;

  // Deterministic run telemetry (metrics + event counts).
  obs::TelemetrySnapshot telemetry;
  // Per-flow roll-ups for the run report (capped at RunReport::kMaxFlows
  // by the report, not here).
  std::vector<obs::FlowSummary> flow_summaries;
};

ResilienceResult run_resilience(const ResilienceConfig& cfg);

}  // namespace trim::exp
