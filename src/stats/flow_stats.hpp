// Per-flow counters populated by the TCP agents and read by experiments:
// timeouts (Table I), retransmissions, goodput, and per-message (packet
// train / HTTP response) completion records (Figs. 5, 7, 8, 12, 13).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace trim::stats {

struct MessageRecord {
  std::uint64_t id = 0;          // caller-chosen (e.g. response index)
  std::uint64_t bytes = 0;
  sim::SimTime start;            // when the application submitted it
  std::optional<sim::SimTime> completed;  // when fully acked

  bool done() const { return completed.has_value(); }
  sim::SimTime completion_time() const { return *completed - start; }
};

class FlowStats {
 public:
  // --- counters bumped by the transport ---
  std::uint64_t data_packets_sent = 0;
  std::uint64_t data_bytes_sent = 0;      // includes retransmissions
  std::uint64_t retransmitted_packets = 0;
  std::uint64_t timeouts = 0;             // RTO firings
  std::uint64_t fast_retransmits = 0;
  std::uint64_t acked_segments = 0;
  std::uint64_t goodput_bytes = 0;        // cumulative, first-time acked
  std::uint64_t ecn_marked_acks = 0;
  std::uint64_t probe_rounds = 0;         // TRIM: inter-train probes fired
  std::uint64_t delay_backoffs = 0;       // TRIM: Eq. (3) reductions

  // --- message tracking ---
  std::uint64_t begin_message(std::uint64_t bytes, sim::SimTime now);
  void complete_message(std::uint64_t id, sim::SimTime now);
  const std::vector<MessageRecord>& messages() const { return messages_; }
  std::vector<sim::SimTime> completed_message_times() const;
  std::size_t completed_messages() const { return completed_; }
  std::size_t incomplete_messages() const { return messages_.size() - completed_; }

 private:
  std::vector<MessageRecord> messages_;
  std::size_t completed_ = 0;
};

}  // namespace trim::stats
