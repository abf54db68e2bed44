// Fat-tree protocol comparison (Fig. 12 and Table I): every server sends
// 1 MB on a persistent connection to a randomly selected sink. The 1 MB is
// pre-divided into small objects of 2-6 KB (sent from 0.1 s) plus one big
// remainder object (sent at 0.5 s). 10 Gbps links, 350 KB switch buffers.
// Reports the mean and maximum per-server completion time and the total
// number of TCP timeouts.
#pragma once

#include <cstdint>

#include "obs/telemetry.hpp"
#include "sim/sched_types.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/time.hpp"
#include "tcp/tcp_common.hpp"

namespace trim::exp {

struct FattreeConfig {
  tcp::Protocol protocol = tcp::Protocol::kReno;
  int pods = 4;  // paper sweeps 4..10
  static constexpr std::uint64_t total_bytes = 1 << 20;
  // 2-6 KB small objects from 0.1 s. ~100 of them (~400 KB) replicate the
  // paper's setup where the pre-0.5 s exchange inflates the inherited
  // window into the hundreds of segments, so the 0.5 s big-object burst
  // overruns the 350 KB buffers exactly as Sec. IV-C describes.
  static constexpr int small_objects = 100;
  static constexpr sim::SimTime small_start = sim::SimTime::seconds(0.1);
  static constexpr sim::SimTime small_spacing = sim::SimTime::millis(2);
  static constexpr sim::SimTime big_start = sim::SimTime::seconds(0.5);
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
  // and what the engine's runs did.
  std::uint64_t events_dispatched = 0;
  sim::EngineRun engine;

  // Deterministic run telemetry (metrics + event counts).
  obs::TelemetrySnapshot telemetry;
};

FattreeResult run_fattree(const FattreeConfig& cfg);

}  // namespace trim::exp
