// The per-shard memory domain: one arena for the flow endpoints (senders
// and receivers), attached to that shard's Simulator exactly like
// obs::Telemetry — any component holding a Simulator* reaches its shard's
// memory domain without new plumbing, and two shards never share an
// allocation cache line.
//
// exp::World owns one SimMemory per shard and attaches them in its
// constructor, so every scenario flow is arena-backed: a destroyed
// endpoint's block is recycled for the next one, and the chunks are freed
// when the World dies. A bare Simulator (unit tests, microbenches that
// build flows by hand) has no domain, and its endpoints live on the heap.
#pragma once

#include <algorithm>
#include <cstddef>

#include "mem/arena.hpp"
#include "sim/simulator.hpp"

namespace trim::mem {

// How many TcpSenders are alive on one shard, and the most that ever were
// at once. Senders register in their constructor and leave in their
// destructor.
class SenderCensus {
 public:
  void add() { peak_ = std::max(peak_, ++live_); }
  void remove() { --live_; }
  std::size_t live() const { return live_; }
  // The most senders alive at once.
  std::size_t capacity() const { return peak_; }

 private:
  std::size_t live_ = 0;
  std::size_t peak_ = 0;
};

struct alignas(64) SimMemory {
  Arena arena;
  // The census remains only because perfbench/ reads hot.capacity() (the
  // member and method names are those of the per-sender state table it
  // replaced); perfbench is its only reader outside the tests, and it goes
  // with the next revision of the benchmark.
  SenderCensus hot;

  // Point `sim` at this domain. One domain may serve one simulator;
  // re-attaching replaces the previous pointer (the old domain must
  // outlive any object allocated from it).
  void attach(sim::Simulator& sim) { sim.set_memory(this); }
};

// The domain attached to `sim`, or nullptr.
inline SimMemory* memory_of(const sim::Simulator* sim) {
  return sim != nullptr ? sim->memory() : nullptr;
}

}  // namespace trim::mem
