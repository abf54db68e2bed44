// Shared TCP types and configuration.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"
#include "tcp/lifecycle.hpp"

namespace trim::tcp {

using SeqNum = std::uint64_t;  // segment-counted, as in ns-2

// The values are stable identifiers: parameterized test names print them,
// so a retired protocol's value (6) stays unused.
enum class Protocol {
  kReno,   // legacy TCP baseline ("TCP" in the paper's plots)
  kCubic,  // testbed baseline (Fig. 13)
  kDctcp,  // comparison (Fig. 12, Table I)
  kL2dct,  // comparison (Fig. 12, Table I)
  kTrim,   // the paper's contribution
  kVegas,  // extra baseline: classic delay-based CC (related work [21])
  kGip = 7,  // extra baseline: start-every-train-at-2 (related work [13])
};

std::string to_string(Protocol p);

struct TcpConfig {
  // Paper: "packet size is set as 1460 bytes".
  static constexpr std::uint32_t mss = 1460;
  double initial_cwnd = 2.0;         // segments
  sim::SimTime min_rto = sim::SimTime::millis(200);  // paper default RTO
  sim::SimTime max_rto = sim::SimTime::seconds(60);
  // Window floor after an RTO. Legacy TCP restarts from 1; TCP-TRIM's
  // minimum window is 2 (Sec. III-C).
  double cwnd_after_rto = 1.0;
  double min_cwnd = 1.0;
  bool ecn_capable = false;          // DCTCP / L2DCT set ECT on data
  static constexpr int dupack_threshold = 3;
  // Model the full connection lifecycle (SYN/SYN-ACK/FIN/RST state
  // machine, tcp/lifecycle.hpp). Off by default: the paper's persistent
  // HTTP connections are pre-established. Turn on to study the
  // non-persistent (connection-per-request) alternative the paper's
  // motivation argues against, and connection-storm scenarios.
  bool simulate_handshake = false;
  // Lifecycle knobs, consulted only when simulate_handshake is on.
  LifecycleConfig lifecycle;
};

}  // namespace trim::tcp
