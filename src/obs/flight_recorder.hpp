// Flight recorder: a bounded binary ring of structured telemetry events.
//
// Any component holding a Simulator* can emit (time, kind, subject, a, b) records through
// obs::emit (obs/telemetry.hpp). Two cost tiers:
//
//   * per-kind event COUNTS are always maintained once a Telemetry bundle
//     is attached to the simulator — one array increment per event, so
//     scenario results and run reports can audit activity (how many probe
//     rounds, RTO firings, injected losses) with no ring allocated;
//   * the ring itself is opt-in via enable(capacity) (scenarios, tests) or
//     the TRIM_TELEMETRY env knob (see obs/telemetry.hpp). Storage is
//     allocated once and reused; a full ring overwrites the oldest entry,
//     so a week-long run holds the most recent `capacity` events.
//
// Disabled (no Telemetry attached), the emit sites are a single pointer
// test — the simulation is bit-identical either way, because telemetry
// only observes and never schedules events or draws randomness.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/events.hpp"

namespace trim::obs {

// Per-kind totals, mergeable across runs. The unit of the bench_resilience
// per-profile audit and the "events" section of run reports.
struct EventCounts {
  std::array<std::uint64_t, kEventKindCount> by_kind{};

  std::uint64_t operator[](EventKind k) const {
    return by_kind[static_cast<std::size_t>(k)];
  }
  std::uint64_t total() const;
  void merge(const EventCounts& other);
};

class FlightRecorder {
 public:
  // Counting starts immediately; the ring stays empty until enable().
  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Allocate a ring of `capacity` events (0 disables the ring again).
  // Allocation happens here, never on the emit path.
  void enable(std::size_t capacity);
  bool ring_enabled() const { return !ring_.empty(); }
  std::size_t capacity() const { return ring_.size(); }

  // O(1); counts always, stores when the ring is enabled.
  void emit(sim::SimTime at, EventKind kind, std::uint32_t subject,
            double a = 0.0, double b = 0.0);

  std::uint64_t count(EventKind kind) const { return counts_[kind]; }
  const EventCounts& counts() const { return counts_; }
  std::uint64_t total_emitted() const { return total_emitted_; }

  // Retained events, oldest first (a snapshot; the backing store is a ring).
  std::size_t size() const { return size_; }
  const RecordedEvent& event(std::size_t i) const;
  std::vector<RecordedEvent> events() const;
  // Retained events of one kind, oldest first.
  std::vector<RecordedEvent> events(EventKind kind) const;

  // One JSONL line per retained event (schema in obs/events.hpp).
  std::string to_jsonl() const;

  void clear();

 private:
  std::vector<RecordedEvent> ring_;
  std::size_t head_ = 0;  // oldest retained entry once the ring wrapped
  std::size_t size_ = 0;  // retained entries (<= ring_.size())
  EventCounts counts_;
  std::uint64_t total_emitted_ = 0;
};

}  // namespace trim::obs
