// Sharded parallel discrete-event engine: one giant scenario on many cores.
//
// The engine owns N independent Simulator shards. A partitioned topology
// (net::Network::apply_partition) rebinds every node and link to its
// shard's simulator, so all intra-shard traffic runs exactly as in the
// serial engine. Links whose endpoints live in different shards register
// themselves as *cut links*; their delivery leg crosses shards through a
// per-(source, destination) mailbox instead of the local event queue.
//
// Synchronization is conservative, in barrier windows, with distance-aware
// per-shard window ends:
//
//   L[src][dst] = min total prop_delay over cut-link paths src -> dst
//                 (seeded per cut link, closed over multi-hop shard paths
//                 with a min-plus Floyd–Warshall; the diagonal holds the
//                 shortest *cycle* through other shards, not zero)
//   EIT[s]      = min(earliest pending event on s, earliest undrained
//                 mailbox entry addressed to s)
//   W[dst]      = min(until, min over src of EIT[src] + L[src][dst])
//
// Each shard runs through its own W[dst]: far-apart shards take long
// windows while close neighbors stay tight, instead of the whole fleet
// throttling on the single shortest cut. Safety: any future cross-shard
// arrival at dst originates from some pending event at shard s (at time
// >= EIT[s], including relayed mail) and crosses a path of total delay
// >= L[s][dst], so it is due at or after W[dst] — closure over multi-hop
// paths is what covers relays through currently-idle shards. Progress:
// the shard owning the global minimum m gets W >= m + min positive L > m,
// so it always dispatches. Cross-shard posts are delivered *eagerly*: the
// source publishes into a double-buffered inbox during its window, the
// barrier completion step flips the buffers (single-threaded), and the
// destination worker drains the previous window's buffer at the start of
// its next window in (source, FIFO) order — no locks, no atomics on the
// hot path, all ordering through the barrier phase transition. Shards
// whose next event lies beyond their window skip run_until entirely (the
// idle-shard fast path), and the barrier itself spins adaptively before
// blocking.
//
// Windows never violate causality, and a run is deterministic for a given
// shard count: window plans, drains, and failure reporting are pure
// functions of simulation state, never of thread timing.
//
// Determinism contract (see docs/ENGINE.md "Sharded engine"):
//   - TRIM_SHARDS=1 (the default) is the serial engine, byte-identical to
//     a plain Simulator run.
//   - TRIM_SHARDS=n is deterministic: same build + config + n => same
//     results, at any hardware parallelism.
//   - Across different n, events with *distinct* timestamps dispatch in
//     identical order; simultaneous events on different shards may
//     interleave differently (same-timestamp tie order across shards is
//     an engine artifact).
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace trim::sim {

class ShardedEngine {
 public:
  // `shards` >= 1 (values above 256 are clamped to 256).
  explicit ShardedEngine(int shards);
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  int shard_count() const { return static_cast<int>(shards_.size()); }
  Simulator& shard(int i) { return *shards_[static_cast<std::size_t>(i)]; }
  const Simulator& shard(int i) const { return *shards_[static_cast<std::size_t>(i)]; }
  // Shard 0, where unpartitioned worlds live (and the only shard when
  // TRIM_SHARDS=1).
  Simulator& control() { return shard(0); }

  // Called by Network::apply_partition for every link whose endpoints land
  // on different shards: seeds the (src, dst) cell of the lookahead
  // matrix and shrinks the min-cut lookahead to min(prop_delay). Throws
  // ConfigError on a zero-delay cut (the partition must not split such
  // links — conservative sync would make no progress) or out-of-range
  // shard ids.
  void note_cut_link(int src, int dst, SimTime prop_delay);

  // True once at least one cut link is registered; until then run() and
  // run_until() take the serial path (shards in index order), which is
  // what every unpartitioned scenario under TRIM_SHARDS>1 gets.
  bool sharded() const { return cut_links_ > 0; }
  // Smallest delay of any registered cut link (reported, not planned on:
  // windows come from the per-pair matrix).
  SimTime lookahead() const { return lookahead_; }
  int cut_links() const { return cut_links_; }

  // The path-closed lookahead from shard `src` to shard `dst`:
  // SimTime::max() when no cut-link path connects them (dst then never
  // waits on src). The diagonal is the shortest cycle back through other
  // shards. Computes the closure on first use after new cut links.
  SimTime lookahead_between(int src, int dst);

  // Min-plus Floyd–Warshall closure of an n x n delay matrix (row-major,
  // SimTime::max() = no edge, saturating adds). Shared with
  // topo::partition_network so the partition report and the live engine
  // agree on every L[src][dst].
  static void close_over_paths(std::vector<SimTime>& matrix, int n);

  // Cross-shard hand-off: run `cb` on shard `dst` at time `due`. Called
  // only from shard `src`'s thread during a window (the cut-link delivery
  // path); due must be at or beyond shard dst's current window end, which
  // the lookahead rule guarantees. Entries buffer in the (src, dst)
  // mailbox; the destination worker drains them at the start of its next
  // window.
  void post(int src, int dst, SimTime due, InlineCallback cb);

  // Run until every shard (and every mailbox) drains, or until `until`
  // (inclusive, like Simulator::run_until). Returns events dispatched by
  // this call across all shards. Not reentrant. An exception thrown by an
  // event on any shard ends the run after the window it was thrown in —
  // every shard finishes that window — and the lowest-index failed
  // shard's exception is rethrown here.
  std::uint64_t run();
  std::uint64_t run_until(SimTime until);

  // Aggregates over all shards.
  std::uint64_t events_dispatched() const;
  std::size_t pending_events() const;
  // Summed per-shard event-loop wall time — CPU-time semantics (with n
  // busy shards this approaches n x elapsed). Profiler food.
  std::uint64_t run_wall_ns() const;
  // Elapsed wall-clock spent inside run()/run_until() — the scaling
  // denominator: events_dispatched / elapsed is the engine's true
  // events-per-second, and shrinks as shards spread across cores.
  std::uint64_t elapsed_wall_ns() const { return elapsed_wall_ns_; }

  // Barrier windows executed by parallel runs so far (0 on the serial
  // path); the scaling bench reports sync overhead from this.
  std::uint64_t windows_run() const { return windows_run_; }

  // ---- Shard-execution telemetry ----
  //
  // The engine lives below trim_obs, so it keeps plain counters here and
  // lets exp::World (which owns both) install observers that forward into
  // the flight recorder / metrics registry. Everything in this block is
  // either deterministic (events, posts, window widths) or explicitly
  // wall-clock (stall times) — callers must keep the latter out of
  // deterministic report sections.

  // Per-shard execution accounting for windowed (parallel) runs; all
  // zeros on the serial path. One cache line per shard: the owning worker
  // thread is the only writer during a run. stall_wall_ns starts at the
  // first plan — each worker's first barrier arrival (which absorbs
  // thread-spawn skew and engine setup) is excluded, so the stall column
  // measures synchronization only.
  struct alignas(64) ShardStats {
    std::uint64_t window_events = 0;    // events dispatched inside windows
    std::uint64_t stall_wall_ns = 0;    // wall time blocked at the barrier
    std::uint64_t windows_skipped = 0;  // idle-shard fast-path windows
  };
  const ShardStats& shard_stats(int i) const {
    return shard_stats_[static_cast<std::size_t>(i)];
  }
  // Fleet total of idle-shard fast-path windows (deterministic).
  std::uint64_t windows_skipped() const;

  // Cross-shard traffic totals (deterministic).
  std::uint64_t posts_flushed() const { return posts_flushed_; }
  std::uint64_t flush_batches() const { return flush_batches_; }
  // Widest window planned so far, measured beyond the earliest pending
  // event (deterministic).
  SimTime max_window_advance() const { return max_window_advance_; }

  // Ratio of the busiest shard's windowed event count to the mean
  // (>= 1.0; 1.0 = perfectly balanced, 0.0 before any windowed run).
  double events_imbalance() const;

  // Observers, called only between windows (single-threaded, inside the
  // barrier completion step): the window observer after each plan with
  // (fleet window end, advance beyond the earliest event); the flush
  // observer once per nonempty (src, dst) mailbox batch with the post
  // count and the window boundary it was reported at (eager drains are
  // accounted at the completion step *after* the window that drained
  // them). Must not throw.
  void set_window_observer(InlineFunction<void(SimTime, SimTime)> cb) {
    window_observer_ = std::move(cb);
  }
  void set_flush_observer(
      InlineFunction<void(int, int, std::uint64_t, SimTime)> cb) {
    flush_observer_ = std::move(cb);
  }

  // TRIM_SHARDS env knob: unset / empty / <= 1 -> 1; values are clamped
  // to [1, 256]. Parsed once per process and cached.
  static int shards_from_env();

 private:
  struct Posted {
    SimTime due;
    InlineCallback cb;
  };
  // Cache-line aligned so two shards posting into adjacent (src, dst)
  // boxes during a window never write the same line. Double-buffered for
  // eager delivery: the source pushes into buf[write_buf_] during window
  // k, the (single-threaded) completion step flips write_buf_, and the
  // destination worker drains the other buffer during window k+1 — writer
  // and reader never touch the same buffer inside one window, so the
  // barrier is the only synchronization.
  // min_due[b] tracks the earliest undrained entry in buf[b]; both feed
  // the destination's EIT so undelivered mail still bounds every window.
  struct alignas(64) Mailbox {
    std::vector<Posted> buf[2];
    SimTime min_due[2] = {SimTime::max(), SimTime::max()};
    std::uint64_t flushed = 0;     // cumulative posts drained
    std::uint64_t unreported = 0;  // drained but not yet observer-reported
  };
  static_assert(alignof(Mailbox) == 64, "mailbox false-sharing pad");

  std::size_t mailbox_index(int src, int dst) const {
    return static_cast<std::size_t>(src) * shards_.size() +
           static_cast<std::size_t>(dst);
  }
  // Earliest input shard `s` can still produce or consume: its own queue
  // plus every undrained mailbox entry addressed to it.
  SimTime shard_eit(int s) const;
  // Recompute the closed lookahead matrix from the seeds if stale.
  void ensure_closure();
  // Destination worker schedules its own inbound mail from the previous
  // window's buffers, in (source, FIFO) order.
  void drain_inbox(int dst);
  // Account + report drains performed during the window that just ended
  // (single-threaded, (destination, source) order).
  void report_drains();
  // Per-shard window ends for the next window, or done_ when nothing is
  // due by `until`. Single-threaded: runs between windows only.
  void plan_matrix(SimTime until);
  std::uint64_t run_windows(SimTime until);

  std::vector<std::unique_ptr<Simulator>> shards_;
  std::vector<Mailbox> mail_;  // [src * n + dst]
  std::vector<ShardStats> shard_stats_;
  SimTime lookahead_ = SimTime::max();
  int cut_links_ = 0;
  // Per-pair cut delays as registered (row-major, max() = no direct cut)
  // and their min-plus path closure, rebuilt lazily after new cuts.
  std::vector<SimTime> pair_lookahead_;
  std::vector<SimTime> closed_lookahead_;
  bool closure_valid_ = false;
  std::uint64_t windows_run_ = 0;
  std::uint64_t elapsed_wall_ns_ = 0;
  std::uint64_t posts_flushed_ = 0;
  std::uint64_t flush_batches_ = 0;
  SimTime max_window_advance_;
  SimTime last_window_end_;  // the flush timestamp handed to observers
  InlineFunction<void(SimTime, SimTime)> window_observer_;
  InlineFunction<void(int, int, std::uint64_t, SimTime)> flush_observer_;

  // Window-loop shared state; written by the barrier completion step only,
  // read by workers after the barrier (the phase transition orders both).
  std::vector<SimTime> window_end_;  // [dst]
  std::vector<SimTime> eit_;         // plan scratch, avoids reallocation
  int write_buf_ = 0;                // mailbox buffer the sources fill
  bool done_ = false;
  // [shard] the exception that shard's worker caught in the current
  // window; written only by that worker, read by the completion step and
  // after the join.
  std::vector<std::exception_ptr> failures_;
};

}  // namespace trim::sim
