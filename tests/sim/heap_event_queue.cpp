#include "sim/heap_event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace trim::sim {

// 4-ary layout: children of heap position p are 4p+1 .. 4p+4, parent is
// (p-1)/4. Half the tree depth of a binary heap means half the sift
// levels, and the four-child minimum scan reads consecutive 24-byte
// entries — within one or two cache lines. Sifting moves a hole instead
// of swapping: the displaced entry is written exactly once.

EventId HeapEventQueue::push(SimTime at, Callback cb) {
  std::uint32_t idx;
  if (free_head_ != kNil) {
    idx = free_head_;
    free_head_ = slots_[idx].next_free;
  } else {
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[idx];
  s.cb = std::move(cb);
  s.next_free = kNil;
  heap_.emplace_back();  // opens the hole sift_up fills
  sift_up(static_cast<std::uint32_t>(heap_.size()) - 1,
          HeapEntry{at, next_seq_++, idx});
  return EventId{idx, s.gen};
}

void HeapEventQueue::cancel(EventId id) {
  if (!id.valid() || id.slot_ >= slots_.size()) return;
  const Slot& s = slots_[id.slot_];
  // Stale id: the event already fired or was cancelled (generation moved
  // on), possibly with the slot since recycled. No-op by construction.
  if (s.gen != id.gen_ || s.heap_pos == kNil) return;
  remove_heap_entry(s.heap_pos);
}

bool HeapEventQueue::is_pending(EventId id) const {
  if (!id.valid() || id.slot_ >= slots_.size()) return false;
  const Slot& s = slots_[id.slot_];
  return s.gen == id.gen_ && s.heap_pos != kNil;
}

SimTime HeapEventQueue::next_time() const {
  assert(!heap_.empty());
  return heap_[0].at;
}

HeapEventQueue::Popped HeapEventQueue::pop() {
  assert(!heap_.empty());
  const std::uint32_t idx = heap_[0].slot;
  Popped out{heap_[0].at, std::move(slots_[idx].cb)};
  const HeapEntry tail = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, tail);
  release_slot(idx);
  return out;
}

void HeapEventQueue::clear() {
  for (const HeapEntry& e : heap_) release_slot(e.slot);
  heap_.clear();
  next_seq_ = 1;
}

void HeapEventQueue::sift_up(std::uint32_t pos, HeapEntry e) {
  while (pos != 0) {
    const std::uint32_t parent = (pos - 1) / 4;
    if (!before(e, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

void HeapEventQueue::sift_down(std::uint32_t pos, HeapEntry e) {
  const std::uint32_t n = static_cast<std::uint32_t>(heap_.size());
  while (true) {
    const std::uint32_t first_child = 4 * pos + 1;
    if (first_child >= n) break;
    std::uint32_t best = first_child;
    const std::uint32_t end = std::min(first_child + 4, n);
    for (std::uint32_t c = first_child + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], e)) break;
    place(pos, heap_[best]);
    pos = best;
  }
  place(pos, e);
}

void HeapEventQueue::remove_heap_entry(std::uint32_t pos) {
  const std::uint32_t idx = heap_[pos].slot;
  const HeapEntry tail = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    // The tail entry may order either way relative to its new
    // neighborhood; restore the heap property in whichever direction
    // (sift_up is a no-op when sift_down already moved it).
    sift_down(pos, tail);
    const std::uint32_t landed = slots_[tail.slot].heap_pos;
    if (landed == pos) sift_up(pos, tail);
  }
  release_slot(idx);
}

void HeapEventQueue::release_slot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  s.cb.reset();
  ++s.gen;
  s.heap_pos = kNil;
  s.next_free = free_head_;
  free_head_ = idx;
}

}  // namespace trim::sim
