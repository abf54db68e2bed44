// Types shared by the calendar-queue scheduler (sim/calendar_queue.hpp)
// and the 4-ary heap the engine's tests use as its reference
// implementation. Both hand out the same EventId handle — (slot,
// generation) into the queue's own slot pool — so the equivalence tests
// drive them with identical scripts.
#pragma once

#include <cstdint>

#include "sim/inline_callback.hpp"
#include "sim/time.hpp"

namespace trim::sim {

class HeapEventQueue;
class CalendarQueue;

// Opaque handle to a scheduled event; used to cancel timers. Stale handles
// (event already fired or cancelled) are harmless.
class EventId {
 public:
  constexpr EventId() = default;
  constexpr bool valid() const { return slot_ != kInvalid; }
  constexpr auto operator<=>(const EventId&) const = default;

 private:
  friend class HeapEventQueue;
  friend class CalendarQueue;
  static constexpr std::uint32_t kInvalid = 0xffff'ffff;
  constexpr EventId(std::uint32_t slot, std::uint32_t gen)
      : slot_{slot}, gen_{gen} {}
  std::uint32_t slot_ = kInvalid;
  std::uint32_t gen_ = 0;
};

// The next event, popped off the scheduler.
struct PoppedEvent {
  SimTime at;
  InlineCallback cb;
};

// The engine has one scheduler (the calendar queue) and one shard-sync
// protocol (the per-pair lookahead matrix). These single-value enums, their
// names, and the matching ignored parameters and config fields in exp/
// remain only because perfbench/ still names them; it is their only
// reader, and they go with the next revision of the benchmark.
enum class SchedulerKind : std::uint8_t { kWheel };
enum class SyncMode : std::uint8_t { kMatrix };

constexpr const char* to_string(SchedulerKind) { return "wheel"; }
constexpr const char* to_string(SyncMode) { return "matrix"; }

}  // namespace trim::sim
