#include "obs/telemetry.hpp"

#include "obs/trace_export.hpp"

namespace trim::obs {

Telemetry::Telemetry() {
  core_.segments_sent = registry_.counter("tcp.segments_sent");
  core_.acks_processed = registry_.counter("tcp.acks_processed");
  core_.queue_drops = registry_.counter("queue.drops");
  core_.probe_rtt_us = registry_.histogram("trim.probe_rtt_us", 0.0, 5000.0, 50);
  core_.eq3_ep = registry_.histogram("trim.eq3_ep", 0.0, 1.0, 20);
  staged_.reserve(256);
  sink_mask_ = kDiagnosisKinds;
}

Telemetry::~Telemetry() = default;

void Telemetry::attach(sim::Simulator& sim) {
  sim.set_telemetry(this);
  if (trace_enabled() && !tracer_) {
    tracer_ = std::make_unique<SpanTracer>();
    sink_mask_ |= SpanTracer::kind_mask();
    // Tracing implies the ring: the trace file carries the events
    // alongside the spans, and a causal trace without its events is thin.
    if (!recorder_.ring_enabled()) recorder_.enable(kTraceRingEvents);
  }
}

void Telemetry::dispatch_sinks(sim::SimTime at, EventKind kind,
                               std::uint32_t subject, double a, double b) {
  const RecordedEvent e{at, kind, subject, a, b};
  const std::uint64_t bit = kind_bit(kind);
  if ((bit & kDiagnosisKinds) != 0) {
    if (staged_.size() < kMaxStaged) {
      staged_.push_back(e);
    } else {
      ++staged_dropped_;
    }
  }
  if (tracer_ && (bit & SpanTracer::kind_mask()) != 0) {
    tracer_->on_event(e);
  }
}

TelemetrySnapshot Telemetry::snapshot() const {
  TelemetrySnapshot snap{registry_.snapshot(), recorder_.counts(), {}, {}};
  if (tracer_) {
    snap.spans = tracer_->stats();
  }
  return snap;
}

}  // namespace trim::obs
