#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/sender_factory.hpp"
#include "exp/experiment.hpp"
#include "mem/arena.hpp"
#include "mem/sim_memory.hpp"
#include "sim/config_error.hpp"
#include "topo/many_to_one.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define TRIM_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TRIM_TEST_ASAN 1
#endif
#endif

#ifdef TRIM_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace trim::mem {
namespace {

TEST(Arena, AllocationsAreContiguousInCreationOrder) {
  Arena a;
  auto* x = static_cast<std::byte*>(a.allocate(16, 8));
  auto* y = static_cast<std::byte*>(a.allocate(16, 8));
  auto* z = static_cast<std::byte*>(a.allocate(16, 8));
  EXPECT_EQ(y - x, 16);
  EXPECT_EQ(z - y, 16);
  EXPECT_EQ(a.bytes_allocated(), 48u);
  EXPECT_EQ(a.chunk_count(), 1u);
}

TEST(Arena, RespectsAlignment) {
  Arena a;
  a.allocate(1, 1);  // misalign the cursor
  auto* p = a.allocate(64, 64);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
  auto* q = a.allocate(8, 8);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(q) % 8, 0u);
}

TEST(Arena, GrowsChunksGeometricallyAndStaysPointerStable) {
  Arena a{1024};
  std::vector<std::uint64_t*> ptrs;
  for (int i = 0; i < 1000; ++i) {
    ptrs.push_back(a.create<std::uint64_t>(static_cast<std::uint64_t>(i)));
  }
  EXPECT_GT(a.chunk_count(), 1u);
  // Every earlier object is still where it was, holding what it held.
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(*ptrs[static_cast<std::size_t>(i)], static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(a.object_count(), 1000u);
}

TEST(Arena, OversizedAllocationGetsItsOwnChunk) {
  Arena a{1024};
  void* p = a.allocate(64 * 1024, 8);
  EXPECT_NE(p, nullptr);
  EXPECT_GE(a.bytes_reserved(), 64u * 1024u);
}

TEST(Arena, ReleaseFreesEverything) {
  Arena a{1024};
  for (int i = 0; i < 100; ++i) a.allocate(64, 8);
  a.release();
  EXPECT_EQ(a.chunk_count(), 0u);
  EXPECT_EQ(a.bytes_allocated(), 0u);
  EXPECT_EQ(a.bytes_reserved(), 0u);
  // Reusable after release.
  auto* p = a.create<int>(7);
  EXPECT_EQ(*p, 7);
}

TEST(Arena, ReleaseDropsFreeLists) {
  Arena a;
  void* p = a.allocate(48, 8);
  a.deallocate(p, 48, 8);
  a.release();
  // A surviving free list would hand back the freed chunk's block; the
  // released arena instead bumps contiguously through a new chunk.
  auto* x = static_cast<std::byte*>(a.allocate(48, 8));
  auto* y = static_cast<std::byte*>(a.allocate(48, 8));
  EXPECT_EQ(y - x, 48);
  EXPECT_EQ(a.chunk_count(), 1u);
  EXPECT_EQ(a.object_count(), 2u);
}

TEST(Arena, RecyclesBlocksLifoWithinAClass) {
  Arena a;
  void* x = a.allocate(48, 8);
  void* y = a.allocate(48, 8);
  void* z = a.allocate(48, 8);
  a.deallocate(x, 48, 8);
  a.deallocate(y, 48, 8);
  EXPECT_EQ(a.allocate(48, 8), y);
  EXPECT_EQ(a.allocate(48, 8), x);
  void* fresh = a.allocate(48, 8);
  EXPECT_NE(fresh, x);
  EXPECT_NE(fresh, y);
  EXPECT_NE(fresh, z);
  EXPECT_EQ(a.object_count(), 6u);  // handed out, recycled ones included
}

TEST(Arena, ClassesNeverShareABlock) {
  Arena a;
  void* x = a.allocate(48, 8);
  a.deallocate(x, 48, 8);
  // Same size, other alignment; other size, same alignment.
  EXPECT_NE(a.allocate(48, 16), x);
  EXPECT_NE(a.allocate(64, 8), x);
  EXPECT_NE(a.allocate(40, 8), x);
  EXPECT_EQ(a.allocate(48, 8), x);
}

TEST(Arena, ChurnStaysInOneChunk) {
  // A sliding population of 64 live objects, 10,000 created in all: the
  // storage is bounded by the live set, not by the objects ever created.
  struct Endpoint {
    std::byte state[512];
  };
  Arena a;
  std::deque<ArenaPtr<Endpoint>> live;
  for (int i = 0; i < 10'000; ++i) {
    live.push_back(arena_new<Endpoint>(&a));
    if (live.size() > 64) live.pop_front();
  }
  EXPECT_EQ(a.object_count(), 10'000u);
  EXPECT_EQ(a.chunk_count(), 1u);
  EXPECT_EQ(a.bytes_reserved(), Arena::kDefaultChunkBytes);
}

TEST(Arena, RecycledBlocksAndUncarvedTailArePoisonedUnderAsan) {
#ifndef TRIM_TEST_ASAN
  GTEST_SKIP() << "needs an AddressSanitizer build";
#else
  Arena a;
  auto* p = static_cast<char*>(a.allocate(64, 8));
  EXPECT_EQ(__asan_address_is_poisoned(p), 0);
  EXPECT_EQ(__asan_address_is_poisoned(p + 63), 0);
  EXPECT_NE(__asan_address_is_poisoned(p + 64), 0);  // not carved yet
  a.deallocate(p, 64, 8);
  EXPECT_NE(__asan_address_is_poisoned(p), 0);
  EXPECT_NE(__asan_address_is_poisoned(p + 63), 0);
  EXPECT_EQ(a.allocate(64, 8), p);
  EXPECT_EQ(__asan_address_is_poisoned(p), 0);
  EXPECT_EQ(__asan_address_is_poisoned(p + 63), 0);
#endif
}

TEST(Arena, ZeroChunkSizeThrows) {
  EXPECT_THROW(Arena{0}, ConfigError);
}

struct Probe {
  static int live;
  int v;
  explicit Probe(int x) : v{x} { ++live; }
  ~Probe() { --live; }
};
int Probe::live = 0;

TEST(ArenaPtr, ArenaBackedRunsDestructorAndRecyclesStorage) {
  Arena a;
  void* block = nullptr;
  {
    ArenaPtr<Probe> p = arena_new<Probe>(&a, 42);
    EXPECT_EQ(Probe::live, 1);
    EXPECT_EQ(p->v, 42);
    EXPECT_FALSE(p.get_deleter().heap());
    block = p.get();
  }
  EXPECT_EQ(Probe::live, 0);
  // The block went back to the arena: the next Probe lands on it.
  ArenaPtr<Probe> q = arena_new<Probe>(&a, 7);
  EXPECT_EQ(static_cast<void*>(q.get()), block);
  EXPECT_EQ(q->v, 7);
  EXPECT_EQ(a.object_count(), 2u);
}

TEST(ArenaPtr, NullArenaFallsBackToHeap) {
  ArenaPtr<Probe> p = arena_new<Probe>(nullptr, 1);
  EXPECT_TRUE(p.get_deleter().heap());
  EXPECT_EQ(Probe::live, 1);
  p.reset();
  EXPECT_EQ(Probe::live, 0);
}

struct Base {
  virtual ~Base() = default;
};
struct Derived : Base {
  explicit Derived(int* flag) : flag_{flag} {}
  ~Derived() override { *flag_ = 1; }
  int* flag_;
};

TEST(ArenaPtr, MakeUniqueConvertsAndUpcasts) {
  // Existing factories returning std::unique_ptr<Derived> must keep
  // converting to ArenaPtr<Base> (deleter converts from default_delete).
  int destroyed = 0;
  {
    ArenaPtr<Base> p = std::make_unique<Derived>(&destroyed);
    EXPECT_TRUE(p.get_deleter().heap());
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(ArenaPtr, ArenaUpcastDestroysThroughVirtualDtor) {
  Arena a;
  int destroyed = 0;
  {
    ArenaPtr<Base> p = arena_new<Derived>(&a, &destroyed);
    EXPECT_FALSE(p.get_deleter().heap());
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(ArenaPtr, UpcastReturnsTheDerivedBlock) {
  struct Wide : Base {
    explicit Wide(int* flag) : flag_{flag} {}
    ~Wide() override { *flag_ = 1; }
    int* flag_;
    std::byte payload[200] = {};
  };
  Arena a;
  int destroyed = 0;
  ArenaPtr<Base> p = arena_new<Wide>(&a, &destroyed);
  EXPECT_EQ(p.get_deleter().bytes, sizeof(Wide));
  void* block = p.get();
  p.reset();
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(a.allocate(sizeof(Wide), alignof(Wide)), block);
}

struct Left {
  virtual ~Left() = default;
  std::uint64_t left = 1;
};
struct Right {
  virtual ~Right() = default;
  std::uint64_t right = 2;
};
struct Both : Left, Right {
  explicit Both(int* flag) : flag_{flag} {}
  ~Both() override { *flag_ = 1; }
  int* flag_;
};

TEST(ArenaPtr, SecondBaseUpcastReturnsTheBlockStart) {
  Arena a;
  int destroyed = 0;
  ArenaPtr<Both> whole = arena_new<Both>(&a, &destroyed);
  void* block = whole.get();
  ArenaPtr<Right> p = std::move(whole);
  ASSERT_NE(static_cast<void*>(p.get()), block);  // Right is not at offset 0
  p.reset();
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(a.allocate(sizeof(Both), alignof(Both)), block);
}

// Scenario-level churn: connection pairs built and torn down through the
// protocol factories against one World. Senders (Reno and TRIM) land in
// the source shard's arena, receivers in the destination's; both recycle.
TEST(ArenaChurn, WorldFlowPairsStayInOneChunk) {
  exp::World world;
  topo::ManyToOneConfig cfg;
  cfg.num_servers = 8;
  const auto topo = topo::build_many_to_one(world.network, cfg);
  core::ProtocolOptions opts;
  opts.trim = core::TrimConfig::for_link(cfg.link_bps, opts.tcp.mss);

  constexpr int kWaves = 1000;
  for (int wave = 0; wave < kWaves; ++wave) {
    const auto protocol = wave % 2 == 0 ? tcp::Protocol::kReno : tcp::Protocol::kTrim;
    std::vector<tcp::Flow> flows;
    for (net::Host* server : topo.servers) {
      flows.push_back(core::make_protocol_flow(world.network, *server,
                                               *topo.front_end, protocol, opts));
    }
  }
  const SimMemory* m = memory_of(&world.simulator);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->arena.object_count(), 2u * 8u * kWaves);
  EXPECT_EQ(m->arena.chunk_count(), 1u);
  EXPECT_EQ(m->arena.bytes_reserved(), Arena::kDefaultChunkBytes);
}

}  // namespace
}  // namespace trim::mem
