// Hierarchical calendar-queue (timing-wheel) scheduler with amortized O(1)
// schedule / pop / cancel: the event queue every Simulator owns. Events
// fire in (time, insertion-sequence) order — exactly the order of a plain
// 4-ary heap, which the engine's tests keep as the reference this queue
// is checked against (tests/sim/heap_event_queue.hpp).
//
// Layout: 8 levels x 256 buckets. An event whose time differs from the
// wheel's current position `cur_` first in byte `L` (counting from the
// least significant byte of the int64 nanosecond count) lives at level L,
// in the bucket indexed by byte L of its time. Level 0 therefore resolves
// single nanoseconds within the current 256 ns window, level 1 resolves
// 256 ns strides within the current 64 us window, and so on — 8 levels
// cover the full 64-bit time range. Each level keeps a 256-bit occupancy
// bitmap, so "next non-empty bucket" is a masked count-trailing-zeros
// scan, not a walk.
//
// Operations:
//   - schedule: compute (level, bucket) with an xor and a count-leading-
//     zeros, append a (time, slot) entry to the bucket's vector. Amortized
//     O(1), no allocation in steady state (nodes come from a free list and
//     bucket vectors keep their capacity).
//   - pop: serve from the "ready run" — the already-dispatched-time bucket,
//     sorted by insertion sequence. When the run drains, advance the wheel
//     to the next occupied bucket: take a level-0 bucket directly (all its
//     events share one timestamp), or cascade a higher-level bucket's
//     events down one or more levels first. An event cascades at most
//     (levels - 1) times over its whole life, so pops stay amortized O(1).
//     A lone event in the earliest occupied bucket is the global minimum
//     and is served directly (sparse-wheel fast path), skipping the
//     cascade entirely.
//   - cancel: swap-remove the event's bucket entry (O(1), touching only
//     the displaced tail entry) or leave a generation-stale tombstone in
//     the ready run that pop skips. EventId generations make
//     cancel-after-fire and slot-reuse no-ops exactly as in the heap.
//
// The tie-break invariant the figure benches depend on: all events in one
// level-0 bucket share the same timestamp (within the current 256-tick
// window the low byte *is* the time), so sorting the bucket by insertion
// sequence when it becomes the ready run reproduces the heap's
// (time, seq) dispatch order exactly — including events scheduled "now"
// from inside callbacks, which append to the live run in sequence order.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/sched_types.hpp"

namespace trim::sim {

class CalendarQueue {
 public:
  using Callback = InlineCallback;
  using Popped = PoppedEvent;

  EventId push(SimTime at, Callback cb);

  // O(1) true removal. No-op for invalid or stale ids (the generation
  // tag catches cancel-after-fire and slot reuse).
  void cancel(EventId id);

  // True while `id` refers to a scheduled-but-not-yet-fired event.
  bool is_pending(EventId id) const;

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  // Time of the next event. Queue must not be empty.
  SimTime next_time() const;

  // Pop and return the next event's callback. Queue must not be empty.
  Popped pop();

  void clear();

 private:
  static constexpr int kLevelBits = 8;
  static constexpr int kLevels = 8;  // 8 x 8-bit digits cover int64 time
  static constexpr std::uint32_t kSlotsPerLevel = 1u << kLevelBits;
  static constexpr std::uint32_t kBucketCount = kLevels * kSlotsPerLevel;
  static constexpr std::uint32_t kWordsPerLevel = kSlotsPerLevel / 64;
  static constexpr std::uint32_t kNil = 0xffff'ffff;
  // Node::where states beyond a bucket index (bucket indices are < 2048).
  static constexpr std::uint16_t kWhereFree = 0xffff;
  static constexpr std::uint16_t kWhereReady = 0xfffe;

  // Hot per-event record. The callback lives in the parallel `cbs_` array
  // so rebucketing an event moves 32-byte entries through the cache, not
  // the callback storage that only push and pop ever read. Buckets are
  // vectors of (time, slot) entries rather than intrusive lists: inserts
  // append, cascades scan sequentially, and a cancel swap-removes one
  // entry — no neighbor nodes are ever touched.
  struct Node {
    std::int64_t at = 0;         // raw nanoseconds, as pushed
    std::uint64_t seq = 0;       // insertion order, tiebreak at equal times
    std::uint32_t gen = 0;       // bumped on release; stale-id detector
    std::uint32_t free_next = kNil;  // free-list link
    std::uint32_t pos = 0;       // index of this event's bucket entry
    std::uint16_t where = kWhereFree;
  };
  static_assert(sizeof(Node) == 32);

  struct BucketEntry {
    std::int64_t at;
    std::uint32_t slot;
  };

  // Ready-run entry: the sort key plus the (slot, gen) identity so
  // cancelled entries are recognized as stale and skipped.
  struct ReadyEntry {
    std::int64_t at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  std::uint32_t acquire_node();
  void release_node(std::uint32_t idx);
  std::uint32_t bucket_of(std::int64_t at) const;
  void bucket_insert(std::uint32_t bucket, std::uint32_t idx);
  void bucket_remove(std::uint32_t idx);
  void ready_insert(std::uint32_t idx);
  // Drop a consumed bucket: mark it empty in the occupancy bitmap and the
  // per-level population count (callers already moved its entries out).
  void bucket_consumed(int level, int slot, std::size_t taken);
  // Find the first occupied bucket at `level` with slot >= `from`; -1 when
  // none. A masked bitmap scan.
  int find_occupied(int level, std::uint32_t from) const;
  // Advance the wheel to the next occupied timestamp and turn its level-0
  // bucket into the ready run (cascading higher levels down as needed).
  // Pre: ready run empty, at least one bucketed event.
  void refill_ready();
  // Ensure the front of the ready run is a live event, refilling from the
  // buckets when the run drains. Post: live front, or live_ == 0.
  void settle();

  std::vector<Node> nodes_;
  std::vector<Callback> cbs_;  // parallel to nodes_; cold except push/pop
  std::uint32_t free_head_ = kNil;
  std::vector<std::vector<BucketEntry>> buckets_;  // kBucketCount, lazily sized
  std::vector<BucketEntry> cascade_;  // scratch for draining one bucket
  // Recycled bucket storage. A high-level bucket is consumed once and then
  // not revisited for a full rotation of its level (seconds to hours), so
  // letting it keep its vector would strand the capacity while the *next*
  // bucket along the wheel grows from zero — a slow allocation drip for as
  // long as the simulation runs. Consumed high-level buckets donate their
  // storage here; bucket_insert into a capacity-zero bucket takes it back.
  std::vector<std::vector<BucketEntry>> spare_;
  std::uint64_t occ_[kLevels][kWordsPerLevel] = {};
  // Live events per level: lets refill_ready skip empty levels outright
  // instead of scanning their bitmaps (a near-empty wheel pops in a few
  // loads instead of walking all eight levels).
  std::uint32_t level_count_[kLevels] = {};
  std::vector<ReadyEntry> ready_;
  std::size_t ready_pos_ = 0;
  std::int64_t cur_ = 0;  // wheel position: timestamp of the ready run
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
};

}  // namespace trim::sim
