// Large-scale two-tier concurrency test (Fig. 8): 5..25 ToR switches with
// 42 servers each (210..1050 servers). Per ToR, two servers run long
// trains for the whole test; the remaining 40 each send one packet train
// at a random offset inside a 0.5 s window (uniform or exponential
// spacing), sized from the Fig. 2(a) distribution. All traffic targets the
// single front-end. RTO = 20 ms. Metric: ACT of the short trains.
#pragma once

#include <cstdint>

#include "obs/telemetry.hpp"
#include "sim/sched_types.hpp"
#include "sim/sharded_engine.hpp"
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
  // and what the engine's runs did.
  std::uint64_t events_dispatched = 0;
  sim::EngineRun engine;

  // Deterministic run telemetry (metrics + event counts).
  obs::TelemetrySnapshot telemetry;
};

LargeScaleResult run_large_scale(const LargeScaleConfig& cfg);

}  // namespace trim::exp
