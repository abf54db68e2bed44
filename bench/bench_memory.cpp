// Memory-architecture benchmark: the numbers the arena/ring overhaul is
// gated on. Reports three scenarios into the "perf" section of
// REPORT_memory.json:
//
//   - steady_state: events/s over a warm many-to-one window, with the
//     measured allocation rate (allocs and bytes per million events).
//     This binary links trim_alloc_hook, so the rate is exact — and in a
//     healthy build it is zero.
//   - flow_churn: flow endpoints constructed + destroyed per second.
//     Senders and receivers land in the world's per-shard arena, so churn
//     cost is an arena free-list pop, not a malloc round-trip; the arena's
//     reserve afterwards shows the storage stayed bounded by one wave.
//   - large_scale_quick: events/s of the fig08 large-scale scenario at
//     quick size — the end-to-end number the perf-regression gate tracks,
//     here with the allocation hook linked to confirm the hook's off-gate
//     cost is negligible.
//
// Peak RSS rides along in the report header;
// scripts/check_perf_regression.py gates events/s and RSS trajectory.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/sender_factory.hpp"
#include "exp/experiment.hpp"
#include "exp/large_scale_scenario.hpp"
#include "mem/alloc_hooks.hpp"
#include "mem/sim_memory.hpp"
#include "topo/many_to_one.hpp"

using namespace trim;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// The zero-alloc regression test's scenario, sized up and timed: four
// long-running Reno flows into one front end through a deep buffer,
// measured strictly inside the transfers.
void bench_steady_state(obs::RunReport& report) {
  exp::World world;
  topo::ManyToOneConfig cfg;
  cfg.num_servers = 4;
  cfg.switch_buffer_pkts = 2000;
  const auto topo = build_many_to_one(world.network, cfg);
  core::ProtocolOptions opts;
  std::vector<tcp::Flow> flows;
  for (int i = 0; i < cfg.num_servers; ++i) {
    flows.push_back(core::make_protocol_flow(world.network, *topo.servers[i],
                                             *topo.front_end,
                                             tcp::Protocol::kReno, opts));
    flows.back().sender->write(500'000'000);
  }

  world.run_until(sim::SimTime::millis(500));  // warm: past the first sawtooth
  const std::uint64_t warm_events = world.simulator.events_dispatched();

  mem::reset_alloc_counts();
  mem::set_alloc_counting(true);
  const auto t0 = std::chrono::steady_clock::now();
  world.run_until(sim::SimTime::millis(2500));
  const double wall = seconds_since(t0);
  mem::set_alloc_counting(false);

  const auto events =
      static_cast<double>(world.simulator.events_dispatched() - warm_events);
  const auto totals = mem::alloc_totals();
  const double per_m = 1e6 / events;
  std::printf("steady_state: %.3g events/s, %.4g allocs/Mevent, %.4g bytes/Mevent\n",
              events / wall, static_cast<double>(totals.allocs) * per_m,
              static_cast<double>(totals.bytes) * per_m);
  report.add_perf("memory_steady_state", events / wall,
                  {{"allocs_per_mevent", static_cast<double>(totals.allocs) * per_m},
                   {"alloc_bytes_per_mevent", static_cast<double>(totals.bytes) * per_m},
                   {"window_events", events}});
}

// Endpoint churn: repeatedly build and tear down a wave of flows against
// one world. Measures the allocator-facing cost of connection setup now
// that endpoints are arena-backed and their blocks are recycled.
void bench_flow_churn(obs::RunReport& report) {
  exp::World world;
  topo::ManyToOneConfig cfg;
  cfg.num_servers = 8;
  const auto topo = build_many_to_one(world.network, cfg);
  core::ProtocolOptions opts;

  constexpr int kWaves = 2000;
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t built = 0;
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<tcp::Flow> flows;
    flows.reserve(static_cast<std::size_t>(cfg.num_servers));
    for (int i = 0; i < cfg.num_servers; ++i) {
      flows.push_back(core::make_protocol_flow(world.network, *topo.servers[i],
                                               *topo.front_end,
                                               tcp::Protocol::kReno, opts));
    }
    built += flows.size();
  }  // wave destructs: arena blocks recycle
  const double wall = seconds_since(t0);

  const mem::SimMemory* m = mem::memory_of(&world.simulator);
  const double arena_bytes =
      m != nullptr ? static_cast<double>(m->arena.bytes_reserved()) : 0.0;
  std::printf("flow_churn: %.3g endpoints/s, arena %.3g bytes reserved\n",
              static_cast<double>(built) * 2 / wall, arena_bytes);
  report.add_perf("memory_flow_churn", static_cast<double>(built) * 2 / wall,
                  {{"arena_reserved_bytes", arena_bytes}});
}

// The gate's end-to-end number: the paper's smallest Fig. 8 point (5 ToRs,
// 210 servers) run with the hook linked but the counting gate off — the
// off-gate hook cost is one relaxed atomic load per allocation, and there
// are no steady-state allocations left to load it on.
void bench_large_scale_quick(obs::RunReport& report) {
  exp::LargeScaleConfig cfg;
  cfg.protocol = tcp::Protocol::kReno;
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = exp::run_large_scale(cfg);
  const double wall = seconds_since(t0);
  const auto events = static_cast<double>(result.events_dispatched);
  std::printf("large_scale_quick: %.3g events/s (%.3g events, %.2fs, RSS %.1f MB)\n",
              events / wall, events, wall,
              obs::peak_rss_bytes() / (1024.0 * 1024.0));
  report.add_perf("memory_large_scale_quick", events / wall,
                  {{"events", events}, {"rss_bytes", obs::peak_rss_bytes()}});
}

}  // namespace

int main() {
  if (!mem::alloc_hooks_active()) {
    std::fprintf(stderr,
                 "bench_memory: allocation hook not linked; rates would lie\n");
    return 1;
  }
  obs::RunReport report{"memory"};
  bench_steady_state(report);
  bench_flow_churn(report);
  bench_large_scale_quick(report);
  bench::finish_report(report);
  return 0;
}
