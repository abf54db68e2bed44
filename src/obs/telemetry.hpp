// The per-Simulator telemetry bundle: one MetricsRegistry plus one
// FlightRecorder plus the diagnosis sinks (collapse-diagnosis staging,
// optional span tracer), attached to a Simulator so every component
// holding a Simulator* can reach all of them without new plumbing.
//
// exp::World owns a Telemetry and attaches it in its constructor, so all
// scenario runs are instrumented by default; bare Simulator uses (unit
// tests, micro-benches) have no bundle and every emit site degrades to a
// null-pointer test. Attachment is observational only — telemetry never
// schedules events or draws randomness — so simulation output is
// byte-identical with the bundle present, absent, or traced.
//
// Emit sites route through observe(): the recorder always counts, then a
// single 64-bit mask test decides whether any sink (diagnosis, tracer)
// wants the kind — hot kinds stay a count increment plus one AND.
//
// Collapse diagnosis is always on. The one knob is TRIM_TRACE (read
// per bundle at attach, see trace_export.hpp): it adds the span tracer and
// a kTraceRingEvents ring, whose contents exp::World writes to the run's
// trace file. Without it the ring stays off unless code calls
// recorder().enable(n).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/diagnosis.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"
#include "sim/simulator.hpp"

namespace trim::obs {

// The deterministic part of a run's telemetry: metrics + event counts +
// diagnosed episodes + span roll-up. Scenario results carry one of these;
// parallel sweeps merge them in submission order, so the merged snapshot
// is identical at any REPRO_JOBS width.
struct TelemetrySnapshot {
  MetricsSnapshot metrics;
  EventCounts events;
  std::vector<DiagnosedEpisode> episodes;  // concatenated on merge
  SpanStats spans;                         // zeros when tracing is off

  void merge(const TelemetrySnapshot& other) {
    metrics.merge(other.metrics);
    events.merge(other.events);
    episodes.insert(episodes.end(), other.episodes.begin(),
                    other.episodes.end());
    spans.merge(other.spans);
  }
};

// alignas(64): one bundle per shard, each incremented from its own worker
// thread on every segment/ACK — the counters of two bundles must never
// share a cache line (the bundles are heap-allocated per shard; alignment
// guarantees the line split even if an allocator co-locates them).
class alignas(64) Telemetry {
 public:
  // Pre-registered handles for the hot emit sites, resolved once here so
  // the per-ack / per-segment path is a plain pointer increment.
  struct CoreHandles {
    Counter* segments_sent = nullptr;  // tcp.segments_sent
    Counter* acks_processed = nullptr; // tcp.acks_processed
    Counter* queue_drops = nullptr;    // queue.drops
    Histogram* probe_rtt_us = nullptr; // trim.probe_rtt_us [0, 5000) x 50
    Histogram* eq3_ep = nullptr;       // trim.eq3_ep [0, 1) x 20
  };

  Telemetry();
  ~Telemetry();
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  // Ring capacity that tracing gives each bundle.
  static constexpr std::size_t kTraceRingEvents = std::size_t{1} << 16;

  // Point `sim` at this bundle; under TRIM_TRACE, also create the span
  // tracer and enable a kTraceRingEvents ring.
  void attach(sim::Simulator& sim);

  MetricsRegistry& registry() { return registry_; }
  FlightRecorder& recorder() { return recorder_; }
  const FlightRecorder& recorder() const { return recorder_; }
  const CoreHandles& core() const { return core_; }

  // The one recording entry point (see obs::emit below). Inline so the
  // sink-disabled cost is the recorder count plus one mask AND.
  void observe(sim::SimTime at, EventKind kind, std::uint32_t subject,
               double a, double b) {
    recorder_.emit(at, kind, subject, a, b);
    if (at > last_event_at_) last_event_at_ = at;
    if ((sink_mask_ & kind_bit(kind)) != 0) {
      dispatch_sinks(at, kind, subject, a, b);
    }
  }

  // Sinks; both are observational only.
  //
  // Diagnosis: events in kDiagnosisKinds (cold) are staged in an
  // append-only buffer at run time; diagnosis itself is the sorted
  // offline pass in diagnose_episodes(), run at snapshot — which is what
  // makes episodes identical across shard widths (each shard stages its
  // part of one global event multiset).
  //
  // The span tracer, or nullptr when the bundle was attached untraced.
  SpanTracer* tracer() { return tracer_.get(); }

  // The staged diagnosis stream (unsorted, in arrival order) and how many
  // events the staging cap discarded. exp::World pools the staged streams
  // of all shard bundles into one diagnose_episodes() call.
  const std::vector<RecordedEvent>& staged_events() const { return staged_; }
  std::uint64_t staged_dropped() const { return staged_dropped_; }

  // Latest event time seen by observe() — the "now" used to finalize
  // diagnosis and spans at snapshot/teardown.
  sim::SimTime last_event_at() const { return last_event_at_; }

  // Rolls up metrics, event counts and spans. `episodes` stays empty:
  // exp::World diagnoses the pooled staged stream of all its bundles.
  TelemetrySnapshot snapshot() const;

 private:
  void dispatch_sinks(sim::SimTime at, EventKind kind, std::uint32_t subject,
                      double a, double b);

  // Staging cap: bounds diagnosis memory on pathological runs (24 B per
  // event). Overflow drops newest and counts, so diagnosis degrades to
  // "the first million pathological events" instead of unbounded growth.
  static constexpr std::size_t kMaxStaged = std::size_t{1} << 20;

  MetricsRegistry registry_;
  FlightRecorder recorder_;
  CoreHandles core_;
  std::uint64_t sink_mask_ = 0;
  sim::SimTime last_event_at_;
  std::vector<RecordedEvent> staged_;
  std::uint64_t staged_dropped_ = 0;
  std::unique_ptr<SpanTracer> tracer_;
};

// The bundle attached to `sim`, or nullptr (bare Simulator, tests).
inline Telemetry* telemetry_of(const sim::Simulator* sim) {
  return sim != nullptr ? static_cast<Telemetry*>(sim->telemetry()) : nullptr;
}

// The one emit helper used by all instrumented components. Disabled
// telemetry costs exactly this pointer test.
inline void emit(const sim::Simulator* sim, EventKind kind, std::uint32_t subject,
                 double a = 0.0, double b = 0.0) {
  if (Telemetry* t = telemetry_of(sim)) {
    t->observe(sim->now(), kind, subject, a, b);
  }
}

}  // namespace trim::obs
