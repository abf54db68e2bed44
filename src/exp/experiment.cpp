#include "exp/experiment.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "net/routing.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_export.hpp"
#include "sim/logging.hpp"

namespace trim::exp {

int resolve_shards(int requested) {
  if (requested >= 1) return requested > 256 ? 256 : requested;
  return sim::ShardedEngine::shards_from_env();
}

namespace {
std::vector<std::unique_ptr<obs::Telemetry>> make_bundles(int shards) {
  std::vector<std::unique_ptr<obs::Telemetry>> bundles;
  bundles.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    bundles.push_back(std::make_unique<obs::Telemetry>());
  }
  return bundles;
}

std::vector<std::unique_ptr<mem::SimMemory>> make_domains(int shards) {
  std::vector<std::unique_ptr<mem::SimMemory>> domains;
  domains.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    domains.push_back(std::make_unique<mem::SimMemory>());
  }
  return domains;
}
}  // namespace

World::World(int shards, sim::SchedulerKind, sim::SyncMode)
    : shard_memory{make_domains(resolve_shards(shards))},
      shard_telemetry{make_bundles(static_cast<int>(shard_memory.size()))},
      engine{static_cast<int>(shard_telemetry.size())},
      telemetry{*shard_telemetry.front()},
      simulator{engine.control()},
      network{&simulator} {
  for (int i = 0; i < engine.shard_count(); ++i) {
    shard_telemetry[static_cast<std::size_t>(i)]->attach(engine.shard(i));
    shard_memory[static_cast<std::size_t>(i)]->attach(engine.shard(i));
  }
  install_engine_observers();
}

void World::install_engine_observers() {
  // Both observers run in the engine's barrier completion step — single
  // threaded, between windows — and forward into shard 0's bundle with
  // explicit (deterministic) simulation times. The histogram handle is
  // registered lazily on the first window so unsharded worlds never grow
  // a "shard.*" metric in their reports.
  engine.set_window_observer(
      [this](sim::SimTime end, sim::SimTime advance) noexcept {
        if (window_advance_hist_ == nullptr) {
          window_advance_hist_ =
              telemetry.registry().histogram("shard.window_advance_us", 0.0,
                                             1000.0, 100);
        }
        window_advance_hist_->observe(advance.to_micros());
        telemetry.observe(end, obs::EventKind::kShardWindowAdvance, 0,
                          end.to_seconds(), advance.to_seconds());
      });
  engine.set_flush_observer([this](int src, int dst, std::uint64_t posts,
                                   sim::SimTime at) noexcept {
    const auto subject = static_cast<std::uint32_t>((src << 8) | dst);
    telemetry.observe(at, obs::EventKind::kShardMailboxFlush, subject,
                      static_cast<double>(posts), static_cast<double>(src));
  });
}

void World::publish_engine_metrics() const {
  if (engine.windows_run() == 0) return;  // serial path: nothing to report
  obs::MetricsRegistry& reg = shard_telemetry.front()->registry();
  reg.gauge("shard.count")->set(static_cast<double>(engine.shard_count()));
  reg.gauge("shard.cut_links")->set(static_cast<double>(engine.cut_links()));
  reg.gauge("shard.lookahead_us")->set(engine.lookahead().to_micros());
  reg.gauge("shard.windows")->set(static_cast<double>(engine.windows_run()));
  reg.gauge("shard.posts_flushed")
      ->set(static_cast<double>(engine.posts_flushed()));
  reg.gauge("shard.flush_batches")
      ->set(static_cast<double>(engine.flush_batches()));
  reg.gauge("shard.window_advance_max_us")
      ->set(engine.max_window_advance().to_micros());
  reg.gauge("shard.events_imbalance")->set(engine.events_imbalance());
  reg.gauge("shard.windows_skipped")
      ->set(static_cast<double>(engine.windows_skipped()));
}

World::~World() {
  if (engine.run_wall_ns() > 0) {
    obs::sweep_profiler().add("sim.run", engine.run_wall_ns(),
                              engine.events_dispatched());
  }
  if (!obs::trace_enabled()) return;
  // A destructor must not throw: a trace too large to build is skipped
  // with a warning.
  try {
    std::vector<obs::TraceShard> shards;
    shards.reserve(shard_telemetry.size());
    for (const auto& t : shard_telemetry) {
      if (obs::SpanTracer* tracer = t->tracer()) {
        tracer->finalize(t->last_event_at());
      }
      shards.push_back({t->tracer(), &t->recorder()});
    }
    obs::write_chrome_trace(shards);
  } catch (const std::exception& e) {
    sim::warn(0.0, "trace export: %s", e.what());
  }
}

obs::TelemetrySnapshot World::telemetry_snapshot() const {
  publish_engine_metrics();
  // Merge per-bundle snapshots (they carry no episodes), then diagnose the
  // pooled staged stream once: diagnose_episodes() orders it by content,
  // so the episodes are identical whether the run used one shard or many
  // (each shard stages its slice of the same global multiset).
  obs::TelemetrySnapshot snap = shard_telemetry.front()->snapshot();
  for (std::size_t i = 1; i < shard_telemetry.size(); ++i) {
    snap.merge(shard_telemetry[i]->snapshot());
  }
  std::vector<obs::RecordedEvent> staged;
  sim::SimTime finalize_at;
  for (const auto& t : shard_telemetry) {
    staged.insert(staged.end(), t->staged_events().begin(),
                  t->staged_events().end());
    finalize_at = std::max(finalize_at, t->last_event_at());
  }
  if (!staged.empty()) {
    snap.episodes = obs::diagnose_episodes(std::move(staged), finalize_at);
  }
  return snap;
}

std::uint64_t base_seed() {
  if (const char* env = std::getenv("REPRO_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20160701ull;  // ICDCS 2016
}

bool quick_mode() {
  const char* env = std::getenv("REPRO_QUICK");
  return env != nullptr && env[0] == '1';
}

int repeats(int dflt, int quick) {
  if (const char* env = std::getenv("REPRO_REPEATS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return quick_mode() ? quick : dflt;
}

std::uint64_t run_seed(std::uint64_t experiment_tag, int run_index) {
  return net::mix64(base_seed() ^ net::mix64(experiment_tag) ^
                    (static_cast<std::uint64_t>(run_index) << 17));
}

bool invariants_enabled() {
#ifndef NDEBUG
  return true;
#else
  static const bool on = [] {
    const char* env = std::getenv("TRIM_CHECK_INVARIANTS");
    return env != nullptr && env[0] == '1';
  }();
  return on;
#endif
}

InvariantScope::InvariantScope(World& world, sim::SimTime horizon) {
  if (!invariants_enabled()) return;
  checker_ = std::make_unique<fault::InvariantChecker>(&world.simulator,
                                                       &world.network);
  // Periodic checkpoints walk the whole network; in a sharded world they
  // would fire on shard 0 while other shards are mid-window. finish()
  // still checks everything after the engine quiesces.
  if (horizon > sim::SimTime::zero() && world.shard_count() == 1) {
    // A coarse grid: enough samples to catch a transient leak without
    // noticeably slowing debug runs.
    checker_->schedule_checkpoints(horizon.scaled(1.0 / 8.0), horizon);
  }
}

std::size_t InvariantScope::finish(bool fail_hard) {
  finished_ = true;
  if (!checker_) return 0;
  checker_->check_now();
  const std::size_t violations = checker_->violations().size();
  if (fail_hard && violations > 0) {
    sim::warn(0.0, "InvariantScope: %zu violation(s), aborting", violations);
    std::abort();
  }
  return violations;
}

InvariantScope::~InvariantScope() {
  // Too late to inspect senders here (they may already be destroyed);
  // just flag the missing finish() so the scenario gets fixed.
  if (checker_ && !finished_) {
    sim::warn(0.0, "InvariantScope: finish() never called; invariants were "
                   "not verified for this run");
  }
}

void print_banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n==== %s ====\n", title.c_str());
  std::printf("reproduces: %s (TCP-TRIM, ICDCS 2016)\n", paper_ref.c_str());
  if (quick_mode()) std::printf("[REPRO_QUICK=1: reduced repeats/scale]\n");
  std::printf("\n");
}

core::ProtocolOptions default_options(tcp::Protocol protocol, std::uint64_t nic_bps,
                                      sim::SimTime min_rto) {
  core::ProtocolOptions opts;
  opts.tcp.min_rto = min_rto;
  if (protocol == tcp::Protocol::kTrim) {
    opts.trim = core::TrimConfig::for_link(nic_bps, opts.tcp.mss);
  }
  return opts;
}

namespace {
std::uint32_t ecn_threshold_pkts(std::uint64_t link_bps) {
  // DCTCP guideline: K ~ 20 packets at 1 Gbps, 65 packets at 10 Gbps.
  return link_bps >= 10 * net::kGbps ? 65 : 20;
}
}  // namespace

net::QueueConfig switch_queue_for(tcp::Protocol protocol, std::uint32_t buffer_pkts,
                                  std::uint64_t link_bps) {
  if (protocol == tcp::Protocol::kDctcp || protocol == tcp::Protocol::kL2dct) {
    return net::QueueConfig::ecn_packets(buffer_pkts, ecn_threshold_pkts(link_bps));
  }
  return net::QueueConfig::droptail_packets(buffer_pkts);
}

net::QueueConfig switch_queue_bytes_for(tcp::Protocol protocol,
                                        std::uint64_t buffer_bytes,
                                        std::uint64_t link_bps, std::uint32_t mss) {
  if (protocol == tcp::Protocol::kDctcp || protocol == tcp::Protocol::kL2dct) {
    const std::uint64_t mark_bytes =
        static_cast<std::uint64_t>(ecn_threshold_pkts(link_bps)) * (mss + 40);
    return net::QueueConfig::ecn_bytes(buffer_bytes, mark_bytes);
  }
  return net::QueueConfig::droptail_bytes(buffer_bytes);
}

}  // namespace trim::exp
