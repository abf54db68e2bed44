// The telemetry event vocabulary of the flight recorder
// (obs/flight_recorder.hpp): one fixed enum of structured event kinds, one
// POD record layout, and one JSONL line format, so traces from different
// components can be merged on the time axis offline.
//
// Every event is (time, kind, subject, a, b):
//   subject — the emitting entity: the flow id for transport events, a
//             stable 32-bit name hash (subject_id) for links and queues;
//   a, b    — kind-specific payload, documented per kind below.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "sim/time.hpp"

namespace trim::obs {

enum class EventKind : std::uint8_t {
  // TCP-TRIM state machine (core/trim_sender.cpp).
  kTrimGapDetected,    // a = gap seconds, b = smooth_RTT seconds
  kTrimProbeEnter,     // a = saved cwnd, b = probe segment count
  kTrimProbeSent,      // a = probe segment seq, b = probes sent so far
  kTrimProbeAck,       // a = acked probe seq, b = probe RTT seconds
  kTrimProbeTimeout,   // a = resume cwnd (the minimum window), b = saved cwnd
  kTrimResumeEq1,      // a = Eq. 1 tuned cwnd, b = mean probe RTT seconds
  kTrimQueueCutEq3,    // a = congestion extent ep (Eq. 2), b = cwnd after cut
  kTrimKUpdate,        // a = new K seconds, b = min_RTT seconds

  // Base TCP loss recovery (tcp/tcp_sender.cpp).
  kRtoArmed,           // a = armed RTO seconds, b = backoff exponent
  kRtoFired,           // a = backoff exponent when it fired, b = snd_una
  kRtoBackoff,         // a = new backoff exponent, b = snd_una
  kFastRetransmit,     // a = retransmitted seq, b = cwnd after the cut

  // Egress queues (net/queue.cpp).
  kQueueHighWatermark,    // a = depth packets, b = depth bytes
  kQueueDropEpisodeStart, // a = depth packets at first drop, b = depth bytes
  kQueueDropEpisodeEnd,   // a = drops in the episode, b = episode seconds

  // Fault injection (fault/fault_injector.cpp).
  kFaultLoss,          // a = 1 Bernoulli / 2 Gilbert-Elliott / 3 ctrl (SYN/FIN/RST), b = flow id
  kFaultLinkDown,      // scheduled flap start
  kFaultLinkUp,        // a = offered packets dropped while down
  kFaultCorrupt,       // a = flow id, b = seq
  kFaultDuplicate,     // a = flow id, b = seq
  kFaultReorder,       // a = flow id, b = extra hold-back seconds

  // Link packet path. No site emits these three. They stay because
  // perfbench's digest hashes every EventCounts::by_kind slot in order:
  // removing them would shift every later kind and change every
  // reference digest.
  kLinkEnqueued,       // a = seq, b = payload bytes; subject = flow id
  kLinkDropped,
  kLinkDelivered,

  // Connection lifecycle (tcp/tcp_sender.cpp, tcp/tcp_receiver.cpp).
  // Appended after the original vocabulary so recorded streams from older
  // runs keep their kind encoding.
  kConnSynSent,        // a = 0 active / 1 passive (SYN-ACK)
  kConnEstablished,    // a = setup latency seconds, b = SYN retransmissions
  kConnStateChange,    // a = new ConnState, b = old ConnState (enum values)
  kConnClosed,         // a = 1 graceful / 0 aborted, b = final ConnState
  kSynRetx,            // a = backoff exponent, b = retries so far
  kFinRetx,            // a = backoff exponent, b = retries so far
  kRstSent,            // a = ConnState when sent
  kChallengeAck,       // SYN into an established connection, acked not reset
  kBacklogDrop,        // a = occupancy, b = 1 RST policy / 0 drop policy
  kPortExhausted,      // a = ports held in TIME_WAIT; subject = host name id

  // Diagnosis-layer additions, appended after the lifecycle vocabulary.
  kConnTimeWaitEnter,  // a = configured TIME_WAIT dwell seconds
  kConnTimeWaitExpire, // the TIME_WAIT timer ran out; the 4-tuple is free
  kPortExhaustedEnd,   // a = failed allocations in the ended episode;
                       //     subject = host name id (see PortAllocator)
  kShardWindowAdvance, // a = window end seconds, b = width beyond the
                       //     earliest pending event; subject = 0
  kShardMailboxFlush,  // subject = (src shard << 8) | dst shard,
                       //     a = posts flushed, b = src shard
};

inline constexpr std::size_t kEventKindCount =
    static_cast<std::size_t>(EventKind::kShardMailboxFlush) + 1;

// The sink-dispatch fast path in obs::Telemetry keys per-kind interest off
// one 64-bit mask; growing past 64 kinds needs a wider mask first.
static_assert(kEventKindCount <= 64, "EventKind mask must stay 64-bit");

// Per-kind bit for building sink-interest masks.
constexpr std::uint64_t kind_bit(EventKind k) {
  return std::uint64_t{1} << static_cast<unsigned>(k);
}

// Stable dotted name, e.g. "trim.probe_enter" — the `kind` field of the
// JSONL schema and the key used in run-report event counts.
const char* to_string(EventKind kind);

// One recorded event. POD on purpose: the flight recorder stores these in
// a preallocated ring and never touches the heap on the emit path.
struct RecordedEvent {
  sim::SimTime at;
  EventKind kind = EventKind::kLinkEnqueued;
  std::uint32_t subject = 0;
  double a = 0.0;
  double b = 0.0;
};

// Receiver-endpoint subject: the passive side of a connection shares the
// sender's flow id but runs its own state machine (its own ESTABLISHED,
// TIME_WAIT, CLOSED transitions, possibly on a different engine shard).
// The high bit marks its lifecycle events so per-subject consumers — the
// span tracer above all — see two independent endpoint streams and
// assemble identical spans at any TRIM_SHARDS width.
inline constexpr std::uint32_t kRxFlowBit = 0x8000'0000u;
constexpr std::uint32_t rx_subject(std::uint32_t flow) {
  return flow | kRxFlowBit;
}

// Stable 32-bit subject id for named entities (links, queues): FNV-1a.
// Depends only on the name, so ids are identical across runs, processes,
// and REPRO_JOBS widths.
constexpr std::uint32_t subject_id(std::string_view name) {
  std::uint32_t h = 2166136261u;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 16777619u;
  }
  return h;
}

// Appends one JSONL line:
//   {"t":<sec>,"kind":"<name>","subject":<id>,"a":<a>,"b":<b>}\n
// The line format of FlightRecorder::to_jsonl (and so of the ring events
// in TRIM_TRACE files): dumps from several recorders interleave cleanly
// when sorted by "t".
void append_event_jsonl(std::string& out, const RecordedEvent& e);

}  // namespace trim::obs
