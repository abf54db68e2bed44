#include "sim/sharded_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <thread>
#include <utility>

#include "sim/config_error.hpp"

namespace trim::sim {

namespace {

// min-plus arithmetic on SimTime: max() is the "no path" element and must
// absorb addition instead of overflowing the underlying nanosecond count.
SimTime sat_add(SimTime a, SimTime b) {
  if (a == SimTime::max() || b == SimTime::max()) return SimTime::max();
  return a + b;
}

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Sense-reversing central barrier with an adaptive spin-then-block wait.
// The last arriver runs the completion step (single-threaded, like
// std::barrier's completion function), reseeds the count, and opens the
// next phase with a release store + notify. Waiters poll the phase for a
// budget that grows while polling succeeds and halves whenever a waiter
// had to fall back to the futex — so short simulation windows stay in
// userspace while long or oversubscribed ones park immediately.
//
// Ordering: every worker's pre-barrier writes happen-before its
// fetch_sub on `remaining_` (acq_rel RMW chain), so the last arriver —
// and therefore the completion step — observes all of them; the
// completion step's writes happen-before the release store on `phase_`,
// which every waiter acquire-loads before returning.
class AdaptiveBarrier {
 public:
  AdaptiveBarrier(int n, InlineFunction<void()> completion, bool oversubscribed)
      : n_{static_cast<std::uint32_t>(n)},
        remaining_{static_cast<std::uint32_t>(n)},
        spin_budget_{oversubscribed ? kMinSpin : kInitSpin},
        completion_{std::move(completion)} {}

  void arrive_and_wait() noexcept {
    const std::uint64_t phase = phase_.load(std::memory_order_acquire);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      completion_();
      remaining_.store(n_, std::memory_order_relaxed);
      phase_.store(phase + 1, std::memory_order_release);
      phase_.notify_all();
      return;
    }
    std::uint32_t spins = 0;
    const std::uint32_t budget = spin_budget_.load(std::memory_order_relaxed);
    while (spins < budget) {
      if (phase_.load(std::memory_order_acquire) != phase) {
        // Polling paid off: allow a slightly longer spin next phase.
        spin_budget_.store(std::min(kMaxSpin, budget + budget / 4 + 1),
                           std::memory_order_relaxed);
        return;
      }
      cpu_relax();
      ++spins;
    }
    // Budget exhausted: park on the futex and spin less next time.
    spin_budget_.store(std::max(kMinSpin, budget / 2),
                       std::memory_order_relaxed);
    std::uint64_t seen = phase_.load(std::memory_order_acquire);
    while (seen == phase) {
      phase_.wait(seen, std::memory_order_acquire);
      seen = phase_.load(std::memory_order_acquire);
    }
  }

 private:
  static constexpr std::uint32_t kMinSpin = 1u << 6;
  static constexpr std::uint32_t kInitSpin = 1u << 12;
  static constexpr std::uint32_t kMaxSpin = 1u << 16;

  const std::uint32_t n_;
  std::atomic<std::uint32_t> remaining_;
  std::atomic<std::uint64_t> phase_{0};
  std::atomic<std::uint32_t> spin_budget_;
  InlineFunction<void()> completion_;
};

}  // namespace

ShardedEngine::ShardedEngine(int shards) {
  if (shards < 1) {
    throw ConfigError{"shard count must be >= 1", "ShardedEngine", "[1, 256]"};
  }
  if (shards > 256) shards = 256;
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Simulator>());
  }
  const auto n = static_cast<std::size_t>(shards);
  mail_.resize(n * n);
  shard_stats_.resize(n);
  pair_lookahead_.assign(n * n, SimTime::max());
  closed_lookahead_.assign(n * n, SimTime::max());
  window_end_.resize(n);
  eit_.resize(n);
  failures_.resize(n);
}

void ShardedEngine::note_cut_link(int src, int dst, SimTime prop_delay) {
  if (prop_delay <= SimTime::zero()) {
    throw ConfigError{"cut link with zero propagation delay", "ShardedEngine",
                      "partitions may only split links with prop_delay > 0"};
  }
  const int n = shard_count();
  if (src < 0 || src >= n || dst < 0 || dst >= n || src == dst) {
    throw ConfigError{"cut link with bad shard pair", "ShardedEngine",
                      "distinct shard ids in [0, shard_count())"};
  }
  SimTime& cell = pair_lookahead_[mailbox_index(src, dst)];
  cell = std::min(cell, prop_delay);
  lookahead_ = std::min(lookahead_, prop_delay);
  ++cut_links_;
  closure_valid_ = false;
}

void ShardedEngine::close_over_paths(std::vector<SimTime>& matrix, int n) {
  const auto idx = [n](int i, int j) {
    return static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
           static_cast<std::size_t>(j);
  };
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      const SimTime ik = matrix[idx(i, k)];
      if (ik == SimTime::max()) continue;
      for (int j = 0; j < n; ++j) {
        const SimTime alt = sat_add(ik, matrix[idx(k, j)]);
        if (alt < matrix[idx(i, j)]) matrix[idx(i, j)] = alt;
      }
    }
  }
}

void ShardedEngine::ensure_closure() {
  if (closure_valid_) return;
  closed_lookahead_ = pair_lookahead_;
  close_over_paths(closed_lookahead_, shard_count());
  closure_valid_ = true;
}

SimTime ShardedEngine::lookahead_between(int src, int dst) {
  const int n = shard_count();
  if (src < 0 || src >= n || dst < 0 || dst >= n) {
    throw ConfigError{"shard id out of range", "ShardedEngine::lookahead_between",
                      "[0, shard_count())"};
  }
  ensure_closure();
  return closed_lookahead_[mailbox_index(src, dst)];
}

void ShardedEngine::post(int src, int dst, SimTime due, InlineCallback cb) {
  Mailbox& box = mail_[mailbox_index(src, dst)];
  box.buf[write_buf_].push_back(Posted{due, std::move(cb)});
  SimTime& min_due = box.min_due[write_buf_];
  if (due < min_due) min_due = due;
}

SimTime ShardedEngine::shard_eit(int s) const {
  SimTime t = shards_[static_cast<std::size_t>(s)]->next_event_time();
  const int n = shard_count();
  for (int src = 0; src < n; ++src) {
    const Mailbox& box = mail_[mailbox_index(src, s)];
    t = std::min({t, box.min_due[0], box.min_due[1]});
  }
  return t;
}

void ShardedEngine::drain_inbox(int dst) {
  const int read_buf = 1 - write_buf_;
  const int n = shard_count();
  Simulator& sim = *shards_[static_cast<std::size_t>(dst)];
  for (int src = 0; src < n; ++src) {
    Mailbox& box = mail_[mailbox_index(src, dst)];
    auto& buf = box.buf[read_buf];
    if (buf.empty()) continue;
    for (auto& entry : buf) {
      sim.schedule_at(entry.due, std::move(entry.cb));
    }
    const auto count = static_cast<std::uint64_t>(buf.size());
    box.flushed += count;
    box.unreported += count;
    buf.clear();
    box.min_due[read_buf] = SimTime::max();
  }
}

void ShardedEngine::report_drains() {
  const int n = shard_count();
  for (int dst = 0; dst < n; ++dst) {
    for (int src = 0; src < n; ++src) {
      Mailbox& box = mail_[mailbox_index(src, dst)];
      if (box.unreported == 0) continue;
      posts_flushed_ += box.unreported;
      ++flush_batches_;
      if (flush_observer_) {
        flush_observer_(src, dst, box.unreported, last_window_end_);
      }
      box.unreported = 0;
    }
  }
}

void ShardedEngine::plan_matrix(SimTime until) {
  const int n = shard_count();
  SimTime m = SimTime::max();
  for (int s = 0; s < n; ++s) {
    eit_[static_cast<std::size_t>(s)] = shard_eit(s);
    m = std::min(m, eit_[static_cast<std::size_t>(s)]);
  }
  if (m == SimTime::max() || m > until) {
    done_ = true;
    return;
  }
  // W[dst] = min over src of EIT[src] + L_closed[src][dst]: any future
  // cross-shard arrival at dst descends from a pending input at some
  // shard src through a path of at least L_closed[src][dst] delay, so
  // nothing can land inside (now, W[dst]]. The closed diagonal bounds
  // echoes dst -> ... -> dst through currently-idle relays the same way.
  SimTime fleet_end = SimTime::zero();
  for (int dst = 0; dst < n; ++dst) {
    SimTime w = until;
    for (int src = 0; src < n; ++src) {
      const SimTime bound =
          sat_add(eit_[static_cast<std::size_t>(src)],
                  closed_lookahead_[mailbox_index(src, dst)]);
      if (bound < w) w = bound;
    }
    window_end_[static_cast<std::size_t>(dst)] = w;
    if (w > fleet_end) fleet_end = w;
  }
  ++windows_run_;
  const SimTime advance = fleet_end - m;
  if (advance > max_window_advance_) max_window_advance_ = advance;
  last_window_end_ = fleet_end;
  if (window_observer_) window_observer_(fleet_end, advance);
}

std::uint64_t ShardedEngine::run() { return run_until(SimTime::max()); }

std::uint64_t ShardedEngine::run_until(SimTime until) {
  const auto wall_start = std::chrono::steady_clock::now();
  std::uint64_t dispatched;
  // Serial path: one shard, or no cut links (an unpartitioned world under
  // TRIM_SHARDS>1 — every extra shard is empty, and with no cut links no
  // mailbox can ever fill, so plain in-order draining is exact).
  if (shard_count() == 1 || !sharded()) {
    dispatched = 0;
    for (auto& s : shards_) dispatched += s->run_until(until);
  } else {
    dispatched = run_windows(until);
  }
  elapsed_wall_ns_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
  return dispatched;
}

std::uint64_t ShardedEngine::run_windows(SimTime until) {
  const int n = shard_count();
  const std::uint64_t dispatched_before = events_dispatched();
  ensure_closure();

  // The first plan runs before any worker starts; later ones run in the
  // barrier completion step, by exactly one thread.
  done_ = false;
  std::fill(failures_.begin(), failures_.end(), nullptr);
  plan_matrix(until);

  if (!done_) {
    const unsigned hw = std::thread::hardware_concurrency();
    AdaptiveBarrier sync{
        n,
        [this, until]() noexcept {
          // Close the window that just ended: account the eager drains
          // the destination workers performed in it — single-threaded
          // here, so the observer stream stays deterministic — and flip
          // the buffers, so everything posted in it becomes readable and
          // the drained buffer writable. Mail posted in a run's last
          // window therefore stays readable for the next run_until call.
          report_drains();
          write_buf_ ^= 1;
          if (std::any_of(failures_.begin(), failures_.end(),
                          [](const auto& f) { return f != nullptr; })) {
            done_ = true;
            return;
          }
          plan_matrix(until);
        },
        hw != 0 && hw < static_cast<unsigned>(n)};

    auto worker = [this, &sync](int shard_index) {
      const auto i = static_cast<std::size_t>(shard_index);
      Simulator& sim = *shards_[i];
      ShardStats& stats = shard_stats_[i];
      bool first_arrival = true;
      while (true) {
        try {
          drain_inbox(shard_index);
          const SimTime end = window_end_[i];
          if (sim.next_event_time() <= end) {
            const std::uint64_t before = sim.events_dispatched();
            sim.run_until(end);
            stats.window_events += sim.events_dispatched() - before;
          } else {
            // Idle-shard fast path: nothing due inside the window and
            // the inbox is already drained — skip the run_until call
            // (the final clock clamp below catches now() up).
            ++stats.windows_skipped;
          }
        } catch (...) {
          // Record the fault and keep arriving at the barrier: the other
          // workers finish this window and must not be left waiting on a
          // phase that never completes. The completion step ends the run.
          failures_[i] = std::current_exception();
        }
        if (first_arrival) {
          // The first wait absorbs thread-spawn skew and engine setup;
          // stall accounting starts at the next window so the stall
          // column measures synchronization only.
          first_arrival = false;
          sync.arrive_and_wait();
        } else {
          const auto stall_start = std::chrono::steady_clock::now();
          sync.arrive_and_wait();
          stats.stall_wall_ns += static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - stall_start)
                  .count());
        }
        if (done_) break;
      }
    };

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(n) - 1);
    for (int i = 1; i < n; ++i) threads.emplace_back(worker, i);
    worker(0);
    for (auto& t : threads) t.join();

    // Every shard ran the failing window to its end, so which shards
    // failed depends on simulation state alone, never on which worker
    // threw first in wall time: report the lowest index.
    for (const std::exception_ptr& failure : failures_) {
      if (failure) std::rethrow_exception(failure);
    }
  }

  // Past the horizon (or fully drained): align every shard's clock with
  // Simulator::run_until semantics. No events remain at or before `until`,
  // so these calls dispatch nothing and only advance now().
  if (until != SimTime::max()) {
    for (auto& s : shards_) s->run_until(until);
  }
  return events_dispatched() - dispatched_before;
}

std::uint64_t ShardedEngine::events_dispatched() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->events_dispatched();
  return n;
}

std::size_t ShardedEngine::pending_events() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->pending_events();
  for (const auto& box : mail_) n += box.buf[0].size() + box.buf[1].size();
  return n;
}

std::uint64_t ShardedEngine::windows_skipped() const {
  std::uint64_t n = 0;
  for (const auto& s : shard_stats_) n += s.windows_skipped;
  return n;
}

EngineRun ShardedEngine::run_record() const {
  EngineRun r;
  r.shards = shard_count();
  r.run_wall_s = static_cast<double>(elapsed_wall_ns_) * 1e-9;
  r.windows = windows_run_;
  r.windows_skipped = windows_skipped();
  r.events_imbalance = events_imbalance();
  for (const auto& st : shard_stats_) {
    r.shard_stall_s.push_back(static_cast<double>(st.stall_wall_ns) * 1e-9);
    r.shard_events.push_back(st.window_events);
  }
  return r;
}

double ShardedEngine::events_imbalance() const {
  std::uint64_t total = 0;
  std::uint64_t busiest = 0;
  for (const auto& s : shard_stats_) {
    total += s.window_events;
    busiest = std::max(busiest, s.window_events);
  }
  if (total == 0) return 0.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(shard_stats_.size());
  return static_cast<double>(busiest) / mean;
}

std::uint64_t ShardedEngine::run_wall_ns() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->run_wall_ns();
  return n;
}

int ShardedEngine::shards_from_env() {
  static const int cached = [] {
    const char* env = std::getenv("TRIM_SHARDS");
    if (env == nullptr || env[0] == '\0') return 1;
    const int n = std::atoi(env);
    if (n <= 1) return 1;
    return std::min(n, 256);
  }();
  return cached;
}

}  // namespace trim::sim
