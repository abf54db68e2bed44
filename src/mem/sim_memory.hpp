// The per-shard memory domain: one arena (flow/sender/receiver objects)
// plus one FlowHotTable (SoA per-ACK state), attached to that shard's
// Simulator exactly like obs::Telemetry — any component holding a
// Simulator* reaches its shard's memory domain without new plumbing, and
// two shards never share an allocation cache line.
//
// exp::World owns one SimMemory per shard and attaches them in its
// constructor, so every scenario flow is arena-backed: a destroyed
// endpoint's block is recycled for the next one, and the chunks are freed
// when the World dies. Bare Simulators (unit tests, microbenches that
// build flows by hand) fall back to a process-lifetime registry domain
// created on first use: correctness is identical, the chunks just live
// until process exit (bounded by the handful of bare simulators a test
// binary creates).
#pragma once

#include "mem/arena.hpp"
#include "mem/flow_hot_state.hpp"
#include "sim/simulator.hpp"

namespace trim::mem {

struct alignas(64) SimMemory {
  Arena arena;
  FlowHotTable hot;

  // Point `sim` at this domain. One domain may serve one simulator;
  // re-attaching replaces the previous pointer (the old domain must
  // outlive any object allocated from it).
  void attach(sim::Simulator& sim) { sim.set_memory(this); }
};

// The domain attached to `sim`, or nullptr.
inline SimMemory* memory_of(const sim::Simulator* sim) {
  return sim != nullptr ? sim->memory() : nullptr;
}

// The domain attached to `sim`, creating a registry-backed fallback when
// none is attached (bare Simulator in a unit test). Thread-safe; the
// fallback lives until process exit.
SimMemory& ensure_memory(sim::Simulator& sim);

}  // namespace trim::mem
