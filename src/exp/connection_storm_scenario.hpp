// Connection-storm resilience: a Poisson wave of short-lived connections
// slams one front-end server, with the full SYN/FIN/RST lifecycle
// (tcp/lifecycle.hpp) live on every endpoint.
//
// Each arrival picks a client host, draws an ephemeral port from that
// host's allocator (tcp/port_allocator.hpp — TIME_WAIT holds the port, so
// a hot client can run dry), opens a connection through the front end's
// shared listen backlog (tcp/listen_queue.hpp — overflow degrades to
// silent drop or RST, per policy), sends one request, and closes. The run
// reports setup-latency samples, backlog drop/RST counts, port-exhaustion
// episodes, SYN/FIN retransmission totals, and — the scenario's core
// promise — that every connection that was opened either reached CLOSED
// or is explicitly reported stuck by the drain deadline.
//
// Torn-down endpoints are destroyed mid-run (the storm is a churn
// workload); a tcp::RstResponder on every host answers straggler segments
// for dead flows with RST, exactly like a real stack's closed-port path.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_injector.hpp"
#include "obs/run_report.hpp"
#include "sim/sched_types.hpp"
#include "tcp/listen_queue.hpp"
#include "tcp/port_allocator.hpp"
#include "tcp/tcp_common.hpp"

namespace trim::exp {

struct ConnectionStormConfig {
  tcp::Protocol protocol = tcp::Protocol::kReno;

  // Clients: `num_switches * clients_per_switch` hosts in the two-tier
  // tree (topo/two_tier.hpp), all storming the front end.
  int num_switches = 2;
  int clients_per_switch = 10;

  // The storm: `connections_total` arrivals, Poisson with mean rate
  // `arrival_rate_cps` connections/sec, client chosen uniformly per
  // arrival. All randomness is drawn up front from one seeded stream, so
  // the schedule is identical at any REPRO_JOBS / TRIM_SHARDS setting.
  int connections_total = 200;
  double arrival_rate_cps = 2000.0;
  std::uint64_t request_bytes = 10 * 1460ull;

  tcp::ListenQueueConfig backlog;       // shared by the front end
  tcp::PortAllocatorConfig ports;       // per client host
  tcp::LifecycleConfig lifecycle;       // both endpoints
  sim::SimTime start = sim::SimTime::millis(10);
  // Drain deadline: connections still not CLOSED at this point count as
  // stuck_connections (zero on a healthy run — TIME_WAIT included).
  sim::SimTime run_until = sim::SimTime::seconds(3.0);
  sim::SimTime min_rto = sim::SimTime::millis(200);
  // Cap on the client's exponential SYN/FIN/data backoff: under a storm
  // the time-to-give-up is what separates "degrades" from "wedges".
  sim::SimTime max_rto = sim::SimTime::seconds(60);
  std::uint64_t seed = 1;

  // Engine shards: >= 1 wins over TRIM_SHARDS (which is cached per process
  // and therefore useless for side-by-side comparisons); 0 defers to it.
  int shards = 0;
  sim::SchedulerKind scheduler{};  // ignored; see sim/sched_types.hpp

  // Optional fault profile on the fabric -> front-end bottleneck link
  // (handshakes cross it in the SYN direction, ACKs in the other).
  fault::FaultConfig bottleneck_fault;
};

// Throws trim::ConfigError (what / where / valid range) on a malformed
// config; run_connection_storm calls it first.
void validate(const ConnectionStormConfig& cfg);

struct ConnectionStormResult {
  std::uint64_t connections_attempted = 0;   // arrivals that got a port
  std::uint64_t no_port_skips = 0;           // arrivals refused (allocator dry)
  std::uint64_t connections_established = 0;
  std::uint64_t graceful_closes = 0;         // sender side closed via FIN
  std::uint64_t aborted_closes = 0;          // sender side closed via RST/give-up
  std::uint64_t stuck_connections = 0;       // not CLOSED by run_until

  // Setup latency (SYN sent -> ESTABLISHED) per established connection,
  // seconds, in completion order.
  std::vector<double> setup_latency_s;

  tcp::ListenQueue::Stats backlog;
  // Port-allocator stats summed across clients.
  tcp::PortAllocator::Stats ports;

  // Lifecycle event totals summed over both endpoints of every
  // connection (alive or reaped).
  std::uint64_t syn_retx = 0;
  std::uint64_t fin_retx = 0;
  std::uint64_t rst_sent = 0;
  std::uint64_t rst_received = 0;
  std::uint64_t challenge_acks = 0;

  std::uint64_t queue_drops = 0;
  fault::FaultStats bottleneck_faults;
  std::uint64_t invariant_checkpoints = 0;
  std::uint64_t invariant_violations = 0;

  obs::TelemetrySnapshot telemetry;
};

ConnectionStormResult run_connection_storm(const ConnectionStormConfig& cfg);

}  // namespace trim::exp
