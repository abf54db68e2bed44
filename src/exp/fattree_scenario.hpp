// Fat-tree protocol comparison (Fig. 12 and Table I): every server sends
// 1 MB on a persistent connection to a randomly selected sink. The 1 MB is
// pre-divided into small objects of 2-6 KB (sent from 0.1 s) plus one big
// remainder object (sent at 0.5 s). 10 Gbps links, 350 KB switch buffers.
// Reports the mean and maximum per-server completion time and the total
// number of TCP timeouts.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/telemetry.hpp"
#include "sim/sched_types.hpp"
#include "sim/time.hpp"
#include "tcp/tcp_common.hpp"

namespace trim::exp {

struct FattreeConfig {
  tcp::Protocol protocol = tcp::Protocol::kReno;
  int pods = 4;  // paper sweeps 4..10
  std::uint64_t total_bytes = 1 << 20;
  // 2-6 KB small objects from 0.1 s. ~100 of them (~400 KB) replicate the
  // paper's setup where the pre-0.5 s exchange inflates the inherited
  // window into the hundreds of segments, so the 0.5 s big-object burst
  // overruns the 350 KB buffers exactly as Sec. IV-C describes.
  int small_objects = 100;
  sim::SimTime small_start = sim::SimTime::seconds(0.1);
  sim::SimTime small_spacing = sim::SimTime::millis(2);
  sim::SimTime big_start = sim::SimTime::seconds(0.5);
  sim::SimTime run_until = sim::SimTime::seconds(6.0);
  sim::SimTime min_rto = sim::SimTime::millis(200);
  std::uint64_t seed = 1;
  // Engine shards for this one run: 0 (the default) defers to TRIM_SHARDS.
  // >1 spreads pods across that many cores (the scaling bench sets this).
  int shards = 0;
  sim::SyncMode sync_mode{};  // ignored; see sim/sched_types.hpp
};

struct FattreeResult {
  double mean_completion_ms = 0.0;  // per-server 1 MB completion (from 0.1 s)
  double max_completion_ms = 0.0;
  std::uint64_t timeouts = 0;       // Table I
  int completed_servers = 0;
  int total_servers = 0;
  std::uint64_t drops = 0;

  // Engine accounting for the scaling bench: total events across shards,
  // elapsed wall-clock of the engine run, shards actually used.
  std::uint64_t events_dispatched = 0;
  double run_wall_s = 0.0;
  int shards = 1;

  // Shard-execution telemetry (all zero / empty on the serial path);
  // shard_stall_s is wall-clock, the rest is deterministic.
  std::uint64_t windows = 0;
  std::uint64_t windows_skipped = 0;   // idle-shard fast-path windows (fleet)
  double events_imbalance = 0.0;       // busiest shard / mean (>= 1 when run)
  std::vector<double> shard_stall_s;   // [shard] barrier-stall wall time
  std::vector<std::uint64_t> shard_events;  // [shard] windowed dispatches

  // Deterministic run telemetry (metrics + event counts).
  obs::TelemetrySnapshot telemetry;
};

FattreeResult run_fattree(const FattreeConfig& cfg);

// Batch variant: independent runs fan out across REPRO_JOBS workers (see
// exp/parallel_runner.hpp); results come back in submission order, so the
// output is bit-identical to a serial loop over the configs.
std::vector<FattreeResult> run_fattree_batch(
    const std::vector<FattreeConfig>& cfgs);

}  // namespace trim::exp
