// Compile-time cache-line audit.
//
// Every layout guarantee the memory architecture relies on is asserted
// here, in one place, so a refactor that grows a hot struct past a cache
// line or drops an alignas fails the build instead of silently costing
// throughput. The matching .cpp is an otherwise-empty TU that instantiates
// these asserts inside trim_mem; the header can also be included by tests.
#pragma once

#include <cstddef>

#include "mem/arena.hpp"
#include "mem/ring_buffer.hpp"
#include "mem/sim_memory.hpp"
#include "net/packet.hpp"

namespace trim::mem {

inline constexpr std::size_t kCacheLineBytes = 64;

// --- Packet: the unit the ring buffer and mailboxes move around. Two
// packets per cache line; growing it past 64 bytes halves queue density.
static_assert(sizeof(net::Packet) <= kCacheLineBytes,
              "Packet must fit in one cache line");

// --- Per-shard memory domain: alignas(64) keeps two shards' domains off a
// shared line when World stores them contiguously.
static_assert(alignof(SimMemory) == kCacheLineBytes,
              "SimMemory must be cache-line aligned");

// --- Ring buffer: header small enough that a Queue object (ring + stats)
// stays within two lines; the slab itself is heap-side.
static_assert(sizeof(RingBuffer<net::Packet>) <= kCacheLineBytes,
              "RingBuffer header must fit in one cache line");

// --- Arena: bump-pointer front (current chunk cursor) is the hot part;
// the chunk vector is cold. Keep the whole header within two lines.
static_assert(sizeof(Arena) <= 2 * kCacheLineBytes,
              "Arena header grew past two cache lines");

}  // namespace trim::mem
