// Connection-lifecycle model: the TCP state machine driven by the
// SYN/FIN/RST packet flags (net/packet.hpp).
//
// With TcpConfig::simulate_handshake off (the default — the paper's
// persistent HTTP connections are pre-established) none of this runs and
// every experiment starts from ESTABLISHED, exactly as before. With it on,
// a flow lives the full RFC 793 life:
//
//           active open                      passive open
//   CLOSED ──SYN──> SYN_SENT          LISTEN ──SYN/backlog──> SYN_RCVD
//   SYN_SENT ──SYN-ACK──> ESTABLISHED SYN_RCVD ──ACK|data──> ESTABLISHED
//   ESTABLISHED ──close()──> FIN_WAIT_1 ──ACK of FIN──> FIN_WAIT_2
//   FIN_WAIT_1 ──peer FIN──> CLOSING ──ACK of FIN──> TIME_WAIT
//   FIN_WAIT_2 ──peer FIN──> TIME_WAIT ──timer──> CLOSED
//   ESTABLISHED ──peer FIN──> CLOSE_WAIT ──close()──> LAST_ACK ──ACK──> CLOSED
//   any ──RST──> CLOSED
//
// SYN and FIN occupy one slot of the segment sequence space each (see
// docs/LIFECYCLE.md for the wire layout), so the byte/segment-conservation
// invariants hold across setup and teardown. SYN, SYN-ACK and FIN are
// retransmitted on their own timers with exponential backoff capped at the
// configured maximum RTO; after `max_*_retries` (6) consecutive losses the
// endpoint gives up, sends RST, and reports the connection aborted.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace trim::tcp {

enum class ConnState : std::uint8_t {
  kClosed,
  kListen,
  kSynSent,
  kSynRcvd,
  kEstablished,
  kFinWait1,   // our FIN sent, not yet acked
  kFinWait2,   // our FIN acked, waiting for the peer's
  kClosing,    // simultaneous close: both FINs out, ours unacked
  kTimeWait,   // both FINs exchanged; 2*MSL guard before CLOSED
  kCloseWait,  // peer's FIN consumed, ours not yet sent
  kLastAck,    // our FIN sent after the peer's; waiting for its ACK
};

const char* to_string(ConnState s);

// True in the states where the endpoint has fully left the connection
// (never opened, or torn down). http::ShortConnections reaps a connection
// once both of its endpoints are in one of these.
inline bool is_terminal(ConnState s) {
  return s == ConnState::kClosed || s == ConnState::kListen;
}

struct LifecycleConfig {
  // TIME_WAIT dwell (the 2*MSL guard). Real stacks use 60 s; simulations
  // default shorter so storm runs drain in simulated seconds.
  sim::SimTime time_wait = sim::SimTime::millis(500);

  // Give-up bounds: consecutive unanswered retransmissions of the SYN /
  // SYN-ACK / FIN before the endpoint aborts the connection with a RST.
  static constexpr int max_syn_retries = 6;
  static constexpr int max_fin_retries = 6;

  // Passive side behaves like an HTTP server: when the peer's FIN arrives
  // it immediately half-closes back (FIN -> LAST_ACK).
  static constexpr bool auto_close_on_peer_fin = true;

  // Retransmit timer for the passive side's control packets (SYN-ACK,
  // its own FIN): initial value, doubling per retry, capped at the max.
  // The active side reuses its data RTO machinery instead.
  sim::SimTime retx_rto_initial = sim::SimTime::millis(200);
  sim::SimTime retx_rto_max = sim::SimTime::seconds(60);
};

// Throws trim::ConfigError (what / where / valid range) on nonsense.
void validate(const LifecycleConfig& cfg);

// Per-endpoint lifecycle counters, exported into scenario results.
struct LifecycleStats {
  std::uint64_t syn_sent = 0;
  std::uint64_t syn_retx = 0;
  std::uint64_t synack_sent = 0;
  std::uint64_t synack_retx = 0;
  std::uint64_t fin_sent = 0;
  std::uint64_t fin_retx = 0;
  std::uint64_t rst_sent = 0;
  std::uint64_t rst_received = 0;
  std::uint64_t challenge_acks = 0;

  bool ever_established = false;
  bool graceful_close = false;       // reached CLOSED via the FIN exchange
  sim::SimTime setup_latency;        // first SYN sent -> ESTABLISHED
};

}  // namespace trim::tcp
