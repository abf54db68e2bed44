// Closed-loop HTTP response stream on one persistent connection — the
// pacing rule of Sec. II-A shared by every experiment: the next response
// (packet train) is written one OFF gap after the previous one is fully
// acked. A zero gap keeps the connection backlogged back to back (the
// paper's long trains); a positive gap starts each response from an idle
// connection (short trains, think times).
//
// The stream keeps no counters: the sender's bytes_written(),
// stats().messages() and completed_message_times() are the record.
#pragma once

#include <cstdint>
#include <limits>

#include "sim/inline_callback.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_sender.hpp"

namespace trim::http {

class ResponseStream {
 public:
  using SizeSampler = sim::InlineFunction<std::uint64_t()>;
  using GapSampler = sim::InlineFunction<sim::SimTime()>;
  static constexpr std::uint64_t kUnbounded =
      std::numeric_limits<std::uint64_t>::max();

  // `sender` must outlive the stream. `size` is drawn when a response is
  // written; `gap` when the previous one completes.
  ResponseStream(sim::Simulator* sim, tcp::TcpSender* sender, SizeSampler size,
                 GapSampler gap);

  ResponseStream(const ResponseStream&) = delete;
  ResponseStream& operator=(const ResponseStream&) = delete;

  // Write the first response at `start` (one event), then close the loop
  // through the sender's completion callback. A completion draws the next
  // gap only while `max_messages` allows another response, and the next
  // write is suppressed when it would fall at or after `stop` (an
  // in-flight response still completes). A zero gap writes inside the
  // completion callback, without an event. Throws ConfigError when
  // `stop <= start`, `max_messages` is 0, or on a second run().
  void run(sim::SimTime start, sim::SimTime stop = sim::SimTime::max(),
           std::uint64_t max_messages = kUnbounded);

 private:
  void write();

  sim::Simulator* sim_;
  tcp::TcpSender* sender_;
  SizeSampler size_;
  GapSampler gap_;
  sim::SimTime stop_;
  std::uint64_t remaining_ = 0;  // responses not yet written
  bool running_ = false;
};

}  // namespace trim::http
