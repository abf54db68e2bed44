// Causal flow tracing: assembles the flat flight-recorder event stream
// into per-flow lifecycle *spans* with parent/child causality —
//
//   connection                       (root; one per flow)
//     handshake                      (SYN sent -> ESTABLISHED)
//     slow_start                     (ESTABLISHED -> first congestion signal)
//     probe                          (TRIM probe episode: enter -> resume/timeout)
//     rto                            (RTO recovery: first fire -> backoff reset)
//     time_wait                      (TIME_WAIT enter -> expiry)
//
// The tracer is a pure event consumer: obs::Telemetry creates one when a
// bundle is attached under the TRIM_TRACE knob and routes the kinds in
// kind_mask() through on_event(). It never touches the simulation, so runs
// are byte-identical with tracing on or off.
//
// Outputs: exp::World writes spans() into the run's TRACE_<seq>.json as
// Chrome "X" slices (trace_export.hpp). stats() condenses the span set
// into mergeable, order-independent counts + digest so the shard
// equivalence tests can compare whole traces cheaply.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "obs/events.hpp"

namespace trim::obs {

enum class SpanKind : std::uint8_t {
  kConnection,
  kHandshake,
  kSlowStart,
  kProbe,
  kRto,
  kTimeWait,
};

inline constexpr std::size_t kSpanKindCount =
    static_cast<std::size_t>(SpanKind::kTimeWait) + 1;

const char* to_string(SpanKind kind);

struct Span {
  std::uint32_t id = 0;      // 1-based, unique within one tracer
  std::uint32_t parent = 0;  // parent span id; 0 = root
  SpanKind kind = SpanKind::kConnection;
  std::uint32_t flow = 0;
  sim::SimTime begin;
  sim::SimTime end;
  // Kind-specific payload (documented in docs/OBSERVABILITY.md):
  //   handshake:  a = setup latency s
  //   probe:      a = saved cwnd, b = resumed cwnd (Eq. 1 / minimum)
  //   rto:        a = backoff exponent at first fire, b = fires in the span
  //   connection: a = 1 graceful close / 0 aborted
  //   time_wait:  a = configured dwell s
  double a = 0.0;
  double b = 0.0;
  // False while open, and for spans force-closed by finalize() (the run
  // ended mid-span) — the digest only covers complete spans.
  bool complete = false;
};

// Order-independent roll-up of one tracer's spans; shards merge
// commutatively, so equivalence tests can compare traces across
// TRIM_SHARDS widths without sorting anything.
struct SpanStats {
  std::array<std::uint64_t, kSpanKindCount> by_kind{};
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t digest = 0;  // XOR of per-complete-span hashes

  std::uint64_t total() const {
    std::uint64_t n = 0;
    for (const auto v : by_kind) n += v;
    return n;
  }
  void merge(const SpanStats& other) {
    for (std::size_t i = 0; i < by_kind.size(); ++i) {
      by_kind[i] += other.by_kind[i];
    }
    completed += other.completed;
    dropped += other.dropped;
    digest ^= other.digest;
  }
};

class SpanTracer {
 public:
  // `max_spans` bounds memory; past it new spans are counted as dropped
  // (open spans still close normally).
  explicit SpanTracer(std::size_t max_spans = 1 << 16);

  // The EventKinds the tracer consumes (Telemetry adds these to its sink
  // mask when it creates the tracer).
  static std::uint64_t kind_mask();

  void on_event(const RecordedEvent& e);
  // Close every still-open span at `at` (complete stays false for them).
  void finalize(sim::SimTime at);

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }
  SpanStats stats() const;

 private:
  struct FlowState {
    std::uint32_t connection = 0;  // span ids (0 = none open)
    std::uint32_t handshake = 0;
    std::uint32_t slow_start = 0;
    std::uint32_t probe = 0;
    std::uint32_t rto = 0;
    std::uint32_t time_wait = 0;
  };

  Span* span(std::uint32_t id) { return id == 0 ? nullptr : &spans_[id - 1]; }
  std::uint32_t open_span(SpanKind kind, std::uint32_t flow,
                          std::uint32_t parent, sim::SimTime at);
  void close_span(std::uint32_t& slot, sim::SimTime at, bool complete = true);
  FlowState& flow_state(std::uint32_t flow, sim::SimTime at);

  std::size_t max_spans_;
  std::vector<Span> spans_;
  std::unordered_map<std::uint32_t, FlowState> flows_;
  std::uint64_t dropped_ = 0;
};

}  // namespace trim::obs
