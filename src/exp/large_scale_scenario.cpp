#include "exp/large_scale_scenario.hpp"

#include <memory>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/parallel_runner.hpp"
#include "http/lpt_source.hpp"
#include "http/train_workload.hpp"
#include "stats/summary.hpp"
#include "topo/partition.hpp"
#include "topo/two_tier.hpp"

namespace trim::exp {

LargeScaleResult run_large_scale(const LargeScaleConfig& cfg) {
  require(cfg.num_switches >= 1 && cfg.servers_per_switch >= 1, "empty topology",
          "LargeScaleConfig::num_switches/servers_per_switch", ">= 1 each");
  require(cfg.lpt_servers_per_switch >= 0 &&
              cfg.lpt_servers_per_switch <= cfg.servers_per_switch,
          "more LPT servers than servers",
          "LargeScaleConfig::lpt_servers_per_switch", "[0, servers_per_switch]");
  require(cfg.spt_window > sim::SimTime::zero(), "empty SPT window",
          "LargeScaleConfig::spt_window", "> 0");
  World world{cfg.shards};
  InvariantScope inv{world, cfg.spt_window + cfg.drain};
  sim::Rng rng{cfg.seed};

  topo::TwoTierConfig topo_cfg;
  topo_cfg.num_switches = cfg.num_switches;
  topo_cfg.servers_per_switch = cfg.servers_per_switch;
  topo_cfg.switch_queue =
      switch_queue_for(cfg.protocol, topo_cfg.switch_buffer_pkts, topo_cfg.edge_bps);
  const auto topo = build_two_tier(world.network, topo_cfg);
  // Spread the built topology across the engine's shards before any flow
  // exists — transports bind to their host's (possibly re-homed) simulator.
  topo::shard_network(world.network, world.engine);

  const auto opts = default_options(cfg.protocol, topo_cfg.edge_bps, cfg.min_rto);
  const auto run_until = cfg.spt_window + cfg.drain;

  auto size_cdf = http::TrainWorkload::default_size_cdf();

  std::vector<tcp::Flow> flows;
  std::vector<std::unique_ptr<http::LptSource>> lpt_sources;
  std::vector<tcp::TcpSender*> spt_senders;

  for (int s = 0; s < cfg.num_switches; ++s) {
    for (int h = 0; h < cfg.servers_per_switch; ++h) {
      auto* server = topo.servers[s][h];
      flows.push_back(core::make_protocol_flow(world.network, *server,
                                               *topo.front_end, cfg.protocol, opts));
      auto* sender = flows.back().sender.get();
      inv.watch(*sender);

      if (h < cfg.lpt_servers_per_switch) {
        lpt_sources.push_back(std::make_unique<http::LptSource>(
            server->simulator(), sender, 512 * 1024));
        lpt_sources.back()->run(sim::SimTime::zero(), run_until);
        continue;
      }

      // One short train at a random offset inside the window. Exponential
      // spacing clamps into the window so load stays comparable.
      sim::SimTime at;
      if (cfg.spacing == SptSpacing::kUniform) {
        at = rng.uniform_time(sim::SimTime::zero(), cfg.spt_window);
      } else {
        at = std::min(rng.exponential_time(cfg.spt_window / 3), cfg.spt_window);
      }
      const auto bytes =
          static_cast<std::uint64_t>(std::max(size_cdf.sample(rng), 512.0));
      spt_senders.push_back(sender);
      // Application events live on the sending host's shard.
      server->simulator()->schedule_at(at, [sender, bytes] { sender->write(bytes); });
    }
  }

  world.run_until(run_until);
  inv.finish();

  LargeScaleResult result;
  stats::Summary summary;
  for (auto* sender : spt_senders) {
    // Only short trains count toward the SPT metric (Fig. 8 plots SPT ACT;
    // samples above the LPT threshold are the "LPT" tail handled by the
    // small RTO, per the paper).
    const auto& msgs = sender->stats().messages();
    for (const auto& m : msgs) {
      if (http::TrainWorkload::is_long_train(m.bytes)) continue;
      ++result.total_spts;
      if (m.done()) summary.add(m.completion_time().to_millis());
    }
    result.spt_timeouts += sender->stats().timeouts;
  }
  result.completed_spts = static_cast<int>(summary.count());
  if (!summary.empty()) {
    result.spt_act_ms = summary.mean();
    result.spt_max_ms = summary.max();
  }
  result.drops = world.network.total_drops();
  result.telemetry = world.telemetry_snapshot();
  result.events_dispatched = world.engine.events_dispatched();
  result.run_wall_s = static_cast<double>(world.engine.elapsed_wall_ns()) * 1e-9;
  result.shards = world.shard_count();
  result.windows = world.engine.windows_run();
  result.windows_skipped = world.engine.windows_skipped();
  result.events_imbalance = world.engine.events_imbalance();
  for (int i = 0; i < world.shard_count(); ++i) {
    const auto& st = world.engine.shard_stats(i);
    result.shard_stall_s.push_back(static_cast<double>(st.stall_wall_ns) * 1e-9);
    result.shard_events.push_back(st.window_events);
  }
  return result;
}

std::vector<LargeScaleResult> run_large_scale_batch(
    const std::vector<LargeScaleConfig>& cfgs) {
  return run_parallel(cfgs, run_large_scale);
}

}  // namespace trim::exp
