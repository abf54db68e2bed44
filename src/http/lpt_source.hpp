// Continuous long-packet-train source: keeps the connection backlogged by
// writing fixed-size chunks whenever the previous chunk completes, between
// a start and a stop time — a ResponseStream with a fixed size and a zero
// gap. Models the paper's "LPT running throughout the test" senders
// (Figs. 8-11) while remaining stoppable mid-run (the convergence test
// stops senders one by one).
#pragma once

#include <cstdint>

#include "http/response_stream.hpp"
#include "sim/config_error.hpp"

namespace trim::http {

class LptSource : public ResponseStream {
 public:
  LptSource(sim::Simulator* sim, tcp::TcpSender* sender,
            std::uint64_t chunk_bytes = 1 << 20)
      : ResponseStream{sim, sender, [chunk_bytes] { return chunk_bytes; },
                       [] { return sim::SimTime::zero(); }} {
    if (chunk_bytes == 0) {
      throw ConfigError{"empty chunk", "LptSource", "chunk_bytes >= 1"};
    }
  }
};

}  // namespace trim::http
