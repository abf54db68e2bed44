// Large-scale two-tier concurrency test (Fig. 8): 5..25 ToR switches with
// 42 servers each (210..1050 servers). Per ToR, two servers run long
// trains for the whole test; the remaining 40 each send one packet train
// at a random offset inside a 0.5 s window (uniform or exponential
// spacing), sized from the Fig. 2(a) distribution. All traffic targets the
// single front-end. RTO = 20 ms. Metric: ACT of the short trains.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/telemetry.hpp"
#include "sim/sched_types.hpp"
#include "sim/time.hpp"
#include "tcp/tcp_common.hpp"

namespace trim::exp {

enum class SptSpacing { kUniform, kExponential };

struct LargeScaleConfig {
  tcp::Protocol protocol = tcp::Protocol::kReno;
  int num_switches = 5;        // paper sweeps 5..25
  int servers_per_switch = 42;
  int lpt_servers_per_switch = 2;
  SptSpacing spacing = SptSpacing::kUniform;
  sim::SimTime spt_window = sim::SimTime::seconds(0.5);
  sim::SimTime min_rto = sim::SimTime::millis(20);  // paper: 20 ms here
  sim::SimTime drain = sim::SimTime::seconds(0.7);  // extra time to finish
  std::uint64_t seed = 1;
  // Engine shards for this one run: 0 (the default) defers to TRIM_SHARDS.
  // >1 partitions the two-tier topology across that many cores (the bench
  // sets this explicitly; TRIM_SHARDS=1 keeps the serial engine).
  int shards = 0;
  sim::SyncMode sync_mode{};  // ignored; see sim/sched_types.hpp
};

struct LargeScaleResult {
  double spt_act_ms = 0.0;
  double spt_max_ms = 0.0;
  int completed_spts = 0;
  int total_spts = 0;
  std::uint64_t spt_timeouts = 0;
  std::uint64_t drops = 0;

  // Engine accounting for the scaling bench: total events across shards,
  // elapsed wall-clock of the engine run, shards actually used.
  std::uint64_t events_dispatched = 0;
  double run_wall_s = 0.0;
  int shards = 1;

  // Shard-execution telemetry (all zero / empty on the serial path).
  // windows/imbalance/shard_events are deterministic; shard_stall_s is
  // wall-clock (barrier wait per shard) and must stay out of any
  // deterministic report section.
  std::uint64_t windows = 0;
  std::uint64_t windows_skipped = 0;   // idle-shard fast-path windows (fleet)
  double events_imbalance = 0.0;       // busiest shard / mean (>= 1 when run)
  std::vector<double> shard_stall_s;   // [shard] barrier-stall wall time
  std::vector<std::uint64_t> shard_events;  // [shard] windowed dispatches

  // Deterministic run telemetry (metrics + event counts).
  obs::TelemetrySnapshot telemetry;
};

LargeScaleResult run_large_scale(const LargeScaleConfig& cfg);

// Batch variant: independent runs fan out across REPRO_JOBS workers (see
// exp/parallel_runner.hpp); results come back in submission order, so the
// output is bit-identical to a serial loop over the configs.
std::vector<LargeScaleResult> run_large_scale_batch(
    const std::vector<LargeScaleConfig>& cfgs);

}  // namespace trim::exp
