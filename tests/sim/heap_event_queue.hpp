// Reference scheduler for the engine's tests: an index-tracked 4-ary heap
// with the same contract as sim::CalendarQueue — events dispatch in
// (time, insertion-sequence) order, cancellation is true removal, stale
// EventIds are no-ops by construction, and steady state allocates nothing.
// It is a plain comparison sort with none of the wheel's bucketing,
// cascading or ready-run bookkeeping, which is what makes it a useful
// oracle: the equivalence tests assert the wheel dispatches exactly the
// sequence this queue does.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/inline_callback.hpp"
#include "sim/sched_types.hpp"
#include "sim/time.hpp"

namespace trim::sim {

// Index-tracked 4-ary heap backend with generation-tagged slots.
//
// Events live in a slot pool; the heap orders slot indices by
// (time, insertion sequence) so equal-time events dispatch in insertion
// order, which keeps packet pipelines deterministic. Each slot carries a
// generation counter that is bumped every time the slot is released (fired
// or cancelled); an EventId is (slot, generation), so cancel() on a stale
// id — already fired, already cancelled, or a recycled slot — is a no-op
// by construction. Live cancellation removes the entry from the heap in
// O(log n); there is no tombstone set, so size() is exact and pop() never
// skips entries.
//
// Steady state allocates nothing: released slots go on an intrusive free
// list, the heap is a plain index vector, and callbacks are stored in
// InlineCallback's in-place buffer.
class HeapEventQueue {
 public:
  using Callback = InlineCallback;
  using Popped = PoppedEvent;

  EventId push(SimTime at, Callback cb);

  // O(log n) true removal. No-op for invalid or stale ids (the generation
  // tag catches cancel-after-fire and slot reuse).
  void cancel(EventId id);

  // True while `id` refers to a scheduled-but-not-yet-fired event.
  bool is_pending(EventId id) const;

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  // Time of the next event. Queue must not be empty.
  SimTime next_time() const;

  // Pop and return the next event's callback. Queue must not be empty.
  Popped pop();

  void clear();

 private:
  static constexpr std::uint32_t kNil = 0xffff'ffff;

  struct Slot {
    Callback cb;
    std::uint32_t gen = 0;         // bumped on release; stale-id detector
    std::uint32_t heap_pos = kNil; // position in heap_, kNil when free
    std::uint32_t next_free = kNil;
  };

  // The sort key lives in the heap entry itself, so sift comparisons never
  // touch the slot pool (which only holds the callback + bookkeeping).
  struct HeapEntry {
    SimTime at;
    std::uint64_t seq;  // insertion order, tiebreak at equal times
    std::uint32_t slot;
  };
  static bool before(const HeapEntry& x, const HeapEntry& y) {
    if (x.at != y.at) return x.at < y.at;
    return x.seq < y.seq;
  }

  void place(std::uint32_t pos, const HeapEntry& e) {
    heap_[pos] = e;
    slots_[e.slot].heap_pos = pos;
  }
  void sift_up(std::uint32_t pos, HeapEntry e);
  void sift_down(std::uint32_t pos, HeapEntry e);
  void remove_heap_entry(std::uint32_t pos);
  void release_slot(std::uint32_t idx);

  std::vector<Slot> slots_;
  std::vector<HeapEntry> heap_;  // 4-ary min-heap on (at, seq)
  std::uint32_t free_head_ = kNil;
  std::uint64_t next_seq_ = 1;
};

}  // namespace trim::sim
