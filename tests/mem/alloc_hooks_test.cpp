// Tests for the allocation-counting harness itself. This binary links
// trim_alloc_hook, so global operator new/delete are the counting
// replacements; most other test binaries don't, and alloc_hooks_active()
// is how a test can tell which world it lives in.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "mem/alloc_hooks.hpp"

namespace trim::mem {
namespace {

// The optimizer may legally elide a matched new/delete pair whose pointer
// never escapes ([expr.new]/10) — and under -O2 it does, which would make
// these tests observe nothing. Publishing the pointer through a global
// forces the allocation to really happen; the global is atomic because
// several threads publish through it at once.
std::atomic<void*> g_escape{nullptr};

template <typename T>
T* escape(T* p) {
  g_escape.store(p, std::memory_order_relaxed);
  return p;
}

// Each of these is the first counter call of its process (ctest runs every
// test in its own process, and they come first in this file): counting is
// switched on before this thread has counted anything, and the call must
// return instead of deadlocking in the counter's own bookkeeping.
TEST(AllocHooksFirstUse, ResetWithCountingOnReturns) {
  set_alloc_counting(true);
  reset_alloc_counts();
  delete escape(new int{1});
  set_alloc_counting(false);
  const AllocTotals t = alloc_totals();
  EXPECT_GE(t.allocs, 1u);
  EXPECT_GE(t.frees, 1u);
}

TEST(AllocHooksFirstUse, TotalsWithCountingOnReturn) {
  set_alloc_counting(true);
  const AllocTotals before = alloc_totals();
  delete escape(new int{1});
  const AllocTotals after = alloc_totals();
  set_alloc_counting(false);
  EXPECT_GE(after.allocs, before.allocs + 1);
  EXPECT_GE(after.frees, before.frees + 1);
}

// The gate and totals are process-global, so these tests serialize
// through a fixture that always restores the off state.
class AllocHooks : public ::testing::Test {
 protected:
  void SetUp() override {
    set_alloc_counting(false);
    reset_alloc_counts();
  }
  void TearDown() override { set_alloc_counting(false); }
};

TEST_F(AllocHooks, HooksAreLinkedIntoThisBinary) {
  EXPECT_TRUE(alloc_hooks_active());
}

TEST_F(AllocHooks, CountsNewAndDeleteWhileEnabled) {
  set_alloc_counting(true);
  const AllocTotals before = alloc_totals();
  auto* p = escape(new int{7});
  delete p;
  set_alloc_counting(false);
  const AllocTotals after = alloc_totals();
  EXPECT_GE(after.allocs, before.allocs + 1);
  EXPECT_GE(after.frees, before.frees + 1);
  EXPECT_GE(after.bytes, before.bytes + sizeof(int));
}

TEST_F(AllocHooks, DisabledGateCountsNothing) {
  reset_alloc_counts();
  auto* p = escape(new std::vector<int>(100));
  delete p;
  const AllocTotals t = alloc_totals();
  EXPECT_EQ(t.allocs, 0u);
  EXPECT_EQ(t.frees, 0u);
}

TEST_F(AllocHooks, ResetZeroesTotals) {
  set_alloc_counting(true);
  delete escape(new int{1});
  set_alloc_counting(false);
  EXPECT_GE(alloc_totals().allocs, 1u);
  reset_alloc_counts();
  const AllocTotals t = alloc_totals();
  EXPECT_EQ(t.allocs, 0u);
  EXPECT_EQ(t.frees, 0u);
  EXPECT_EQ(t.bytes, 0u);
}

TEST_F(AllocHooks, CountsSumAcrossThreads) {
  // The sharded engine's workers allocate on their own threads; totals
  // must sum across them without losing a thread's counts.
  constexpr int kThreads = 4;
  constexpr int kAllocsPerThread = 100;
  set_alloc_counting(true);
  reset_alloc_counts();
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([] {
      for (int i = 0; i < kAllocsPerThread; ++i) delete escape(new int{i});
    });
  }
  for (auto& th : pool) th.join();
  set_alloc_counting(false);
  const AllocTotals t = alloc_totals();
  EXPECT_GE(t.allocs, static_cast<std::uint64_t>(kThreads * kAllocsPerThread));
  EXPECT_GE(t.frees, static_cast<std::uint64_t>(kThreads * kAllocsPerThread));
}

TEST_F(AllocHooks, AlignedAndArrayFormsAreCounted) {
  set_alloc_counting(true);
  reset_alloc_counts();
  auto* arr = escape(new double[32]);
  delete[] arr;
  struct alignas(64) Wide {
    double d[8];
  };
  auto* w = escape(new Wide);
  delete w;
  set_alloc_counting(false);
  const AllocTotals t = alloc_totals();
  EXPECT_GE(t.allocs, 2u);
  EXPECT_EQ(t.allocs, t.frees);
}

}  // namespace
}  // namespace trim::mem
