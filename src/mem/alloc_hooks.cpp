#include "mem/alloc_hooks.hpp"

#include <atomic>
#include <cstdio>

#if defined(__GLIBC__)
#include <execinfo.h>
#endif

namespace trim::mem {

namespace {

// Process-wide totals. Relaxed atomics: each count is exact once the
// counting threads are joined, and nothing is ordered by them.
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_frees{0};
std::atomic<std::uint64_t> g_bytes{0};

std::atomic<bool> g_hooks_linked{false};
std::atomic<bool> g_counting{false};
std::atomic<std::uint32_t> g_trace_budget{0};

// Set while this thread prints an allocation backtrace, whose own
// allocations must not be counted (or traced again).
thread_local bool t_in_hook = false;

}  // namespace

bool alloc_hooks_active() { return g_hooks_linked.load(std::memory_order_relaxed); }

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

bool alloc_counting() { return g_counting.load(std::memory_order_relaxed); }

void reset_alloc_counts() {
  g_allocs.store(0, std::memory_order_relaxed);
  g_frees.store(0, std::memory_order_relaxed);
  g_bytes.store(0, std::memory_order_relaxed);
}

AllocTotals alloc_totals() {
  return {g_allocs.load(std::memory_order_relaxed),
          g_frees.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

void set_alloc_trace(std::uint32_t n) {
  g_trace_budget.store(n, std::memory_order_relaxed);
}

namespace detail {

void on_alloc(std::size_t bytes) noexcept {
  if (!g_counting.load(std::memory_order_relaxed) || t_in_hook) return;
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(bytes, std::memory_order_relaxed);
#if defined(__GLIBC__)
  if (g_trace_budget.load(std::memory_order_relaxed) > 0 &&
      g_trace_budget.fetch_sub(1, std::memory_order_relaxed) > 0) {
    t_in_hook = true;  // backtrace_symbols_fd must not recurse into us
    std::fprintf(stderr, "[alloc-trace] counted allocation of %zu bytes:\n", bytes);
    void* frames[32];
    const int depth = backtrace(frames, 32);
    backtrace_symbols_fd(frames, depth, 2);
    t_in_hook = false;
  }
#endif
}

void on_free() noexcept {
  if (!g_counting.load(std::memory_order_relaxed) || t_in_hook) return;
  g_frees.fetch_add(1, std::memory_order_relaxed);
}

void mark_hooks_linked() noexcept {
  g_hooks_linked.store(true, std::memory_order_relaxed);
}

}  // namespace detail

}  // namespace trim::mem
