// Shared experiment plumbing: environment knobs, repeat/seed management,
// and the per-run world (Simulator + Network pair).
//
// Environment variables (read once):
//   REPRO_SEED      base RNG seed (default 20160701)
//   REPRO_REPEATS   repeat count multiplier override for sweep benches
//   REPRO_QUICK     "1" shrinks repeats/scales so the full bench suite
//                   finishes in a couple of minutes
//   REPRO_JOBS      worker threads for the *_batch sweep runners (see
//                   exp/parallel_runner.hpp); default hw_concurrency,
//                   "1" restores the serial path. Output is bit-identical
//                   at any width (docs/ENGINE.md, "Determinism").
//   TRIM_CHECK_INVARIANTS
//                   "1" turns the simulation invariant checker on in
//                   release builds (always on in debug builds). See
//                   fault/invariant_checker.hpp and docs/FAULTS.md.
//   TRIM_SHARDS     shard count for the parallel engine (default 1 = the
//                   serial engine; clamped to [1, 256]). Scenarios that
//                   partition their topology (fig08, fig12) run one giant
//                   world across that many cores; everything else is
//                   unaffected. See docs/ENGINE.md, "Sharded engine".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/sender_factory.hpp"
#include "fault/invariant_checker.hpp"
#include "mem/sim_memory.hpp"
#include "net/network.hpp"
#include "obs/telemetry.hpp"
#include "sim/config_error.hpp"
#include "sim/random.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/simulator.hpp"

namespace trim::exp {

std::uint64_t base_seed();
bool quick_mode();
// `dflt` repeats normally, `quick` repeats under REPRO_QUICK; REPRO_REPEATS
// overrides both.
int repeats(int dflt, int quick);

// Shard count actually used by a World: `requested` >= 1 wins, anything
// else falls back to the TRIM_SHARDS environment knob. Clamped to [1, 256].
int resolve_shards(int requested);

// One isolated simulated world per run, instrumented by default: each
// shard's telemetry bundle attaches to that shard's simulator in the
// constructor, so every emit site in net/tcp/core feeds this world's (and
// only this world's) registries — parallel sweep jobs and parallel shards
// never share telemetry state.
//
// With one shard (the default) this is exactly the old serial world:
// `simulator` is the only event queue and `telemetry` its only bundle.
// With TRIM_SHARDS=n (or World{n}), `engine` owns n shard simulators;
// `simulator` aliases shard 0 (the control shard), where topologies are
// built before topo::shard_network spreads them out.
struct World {
  // `shards` >= 1 wins over TRIM_SHARDS; 0 (the default) defers to it. The
  // trailing parameters are ignored (see sim/sched_types.hpp).
  explicit World(int shards = 0, sim::SchedulerKind = {}, sim::SyncMode = {});
  // Folds this world's event-loop wall time into obs::sweep_profiler()
  // ("sim.run", items = events dispatched), so bench reports break the
  // clock down into loop time vs. harness time. Under TRIM_TRACE, also
  // writes the whole run (every shard's spans and ring events) as one
  // TRACE_<seq>.json, unless nothing was recorded.
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  // Declared first so the memory domains (arenas + sender censuses) are
  // destroyed last: every flow endpoint this world created lives in one of
  // these arenas and every sender leaves its census from its destructor,
  // so the domains must outlive the scenario's Flow objects and the engine.
  std::vector<std::unique_ptr<mem::SimMemory>> shard_memory;
  // Every bundle outlives its shard's simulator.
  std::vector<std::unique_ptr<obs::Telemetry>> shard_telemetry;
  sim::ShardedEngine engine;
  obs::Telemetry& telemetry;   // shard 0's bundle
  sim::Simulator& simulator;   // engine.control() — shard 0
  net::Network network;

  int shard_count() const { return engine.shard_count(); }

  // Drive the whole engine (all shards + mailboxes). Scenarios must call
  // these — not simulator.run_until() — once the topology is partitioned.
  std::uint64_t run() { return engine.run(); }
  std::uint64_t run_until(sim::SimTime until) { return engine.run_until(until); }

  // The deterministic telemetry of this run (metrics + event counts +
  // diagnosed episodes + spans), merged across shards in shard order,
  // ready to merge across repeats in submission order. Publishes the
  // engine's shard-execution gauges (shard.windows, shard.posts_flushed,
  // shard.events_imbalance, ...) into shard 0's registry first — only
  // when at least one barrier window ran, so unsharded reports are
  // unchanged.
  obs::TelemetrySnapshot telemetry_snapshot() const;

 private:
  void install_engine_observers();
  void publish_engine_metrics() const;
  obs::Histogram* window_advance_hist_ = nullptr;  // lazily registered
};

// Seed for (experiment, run) pairs, stable across processes.
std::uint64_t run_seed(std::uint64_t experiment_tag, int run_index);

// Scenario config validation helper: throws trim::ConfigError carrying
// what/where/valid-range when `cond` is false.
inline void require(bool cond, const std::string& what, const std::string& where,
                    const std::string& valid = {}) {
  if (!cond) throw ConfigError{what, where, valid};
}

// Whether the simulation invariant checker runs: always in debug builds,
// opt-in via TRIM_CHECK_INVARIANTS=1 in release builds (so default bench
// output is untouched).
bool invariants_enabled();

// RAII wiring of an InvariantChecker into one scenario run. When checking
// is disabled every member is a no-op, so scenarios call it
// unconditionally. Usage:
//
//   World world;
//   InvariantScope inv{world, cfg.run_until};   // checkpoint grid
//   inv.watch(*flow.sender); ...
//   world.run_until(cfg.run_until);
//   inv.finish();   // final checkpoint; loud failure on any violation
//
// Sharded worlds (shard_count() > 1) skip the periodic checkpoint grid —
// a mid-run checkpoint would read every shard's state while the workers
// are inside a window — but finish() still runs the full final check once
// the engine has quiesced.
// finish() must be called while the watched senders are still alive; it
// prints every violation to stderr and (by default) aborts, so CI cannot
// miss a broken run. The destructor only warns when finish() was skipped.
class InvariantScope {
 public:
  // `horizon` > 0 schedules periodic checkpoints across the run.
  explicit InvariantScope(World& world, sim::SimTime horizon = sim::SimTime::zero());
  ~InvariantScope();

  InvariantScope(const InvariantScope&) = delete;
  InvariantScope& operator=(const InvariantScope&) = delete;

  void watch(tcp::TcpSender& sender) {
    if (checker_) checker_->watch(sender);
  }
  void watch(tcp::TcpReceiver& receiver) {
    if (checker_) checker_->watch(receiver);
  }
  void watch(tcp::ListenQueue& queue) {
    if (checker_) checker_->watch(queue);
  }
  void watch(fault::FaultInjector& injector) {
    if (checker_) checker_->watch(injector);
  }
  // Churn scenarios destroy endpoints mid-run; they must unwatch first.
  void unwatch(tcp::TcpSender& sender) {
    if (checker_) checker_->unwatch(sender);
  }
  void unwatch(tcp::TcpReceiver& receiver) {
    if (checker_) checker_->unwatch(receiver);
  }

  // Final checkpoint + report. Returns the violation count (0 when
  // checking is disabled); with fail_hard, aborts when it is non-zero.
  std::size_t finish(bool fail_hard = true);

  // Null when checking is disabled.
  fault::InvariantChecker* checker() { return checker_.get(); }

 private:
  std::unique_ptr<fault::InvariantChecker> checker_;
  bool finished_ = false;
};

// Pretty banner printed by each bench binary.
void print_banner(const std::string& title, const std::string& paper_ref);

// Per-protocol options for a scenario whose edge/NIC rate is `nic_bps`.
// TRIM derives its Eq. 22 capacity C from the NIC rate (the end-host
// knowledge assumption of Sec. III-C); `min_rto` is the experiment's RTO
// floor (the paper varies it: 200 ms default, 20 ms in Fig. 8, 1 ms in
// Fig. 9(b)).
core::ProtocolOptions default_options(tcp::Protocol protocol, std::uint64_t nic_bps,
                                      sim::SimTime min_rto);

// Switch egress queue for a protocol: plain droptail for the end-to-end
// protocols, DCTCP-style ECN marking (K = 20 pkts at 1G, 65 pkts at 10G,
// per the DCTCP paper's guideline) for DCTCP/L2DCT.
net::QueueConfig switch_queue_for(tcp::Protocol protocol, std::uint32_t buffer_pkts,
                                  std::uint64_t link_bps);
net::QueueConfig switch_queue_bytes_for(tcp::Protocol protocol,
                                        std::uint64_t buffer_bytes,
                                        std::uint64_t link_bps, std::uint32_t mss);

}  // namespace trim::exp
