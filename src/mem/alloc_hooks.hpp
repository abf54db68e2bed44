// Allocation-counting test harness.
//
// The zero-allocation steady-state gate needs to observe every global
// operator new/delete in a real scenario run. The counting itself lives
// here (three process-wide relaxed atomics); the actual operator new/delete
// replacement lives in alloc_hooks_global.cpp, which is compiled *only*
// into the binaries that gate or count allocations (tests/mem,
// bench_memory, bench_engine_micro) via the trim_alloc_hook OBJECT library
// — ordinary benches and the figure binaries keep the stock allocator and
// pay nothing.
//
// Usage in a gated binary:
//   ASSERT_TRUE(mem::alloc_hooks_active());   // hook is linked in
//   mem::set_alloc_counting(true);
//   ... warm up ...
//   mem::reset_alloc_counts();
//   ... steady-state window ...
//   EXPECT_EQ(mem::alloc_totals().allocs, 0u);
#pragma once

#include <cstddef>
#include <cstdint>

namespace trim::mem {

struct AllocTotals {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t bytes = 0;  // requested bytes across counted allocs
};

// True when the replacing operator new/delete from alloc_hooks_global.cpp
// is linked into this binary.
bool alloc_hooks_active();

// Global gate. Off (the default) makes a counted binary's hook cost one
// relaxed atomic load per allocation; on adds every allocation and free,
// from any thread, to the process-wide totals.
void set_alloc_counting(bool on);
bool alloc_counting();

// Zero the totals. Neither this nor alloc_totals() allocates, so both are
// safe to call with counting on.
void reset_alloc_counts();

// Counted allocations, frees and bytes, summed over every thread.
AllocTotals alloc_totals();

// Diagnostics for a failing zero-alloc gate: print the call stack of the
// next `n` counted allocations to stderr (glibc backtrace, mangled
// symbols — feed through c++filt). Self-disarms at zero.
void set_alloc_trace(std::uint32_t n);

namespace detail {
// Called by the replacing operator new/delete. Reentrancy-safe: the
// allocations of an alloc-trace backtrace are not counted.
void on_alloc(std::size_t bytes) noexcept;
void on_free() noexcept;
void mark_hooks_linked() noexcept;
}  // namespace detail

}  // namespace trim::mem
