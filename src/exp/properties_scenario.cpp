#include "exp/properties_scenario.hpp"

#include <memory>
#include <vector>

#include "exp/experiment.hpp"
#include "http/lpt_source.hpp"
#include "stats/rate_meter.hpp"
#include "topo/many_to_one.hpp"

namespace trim::exp {

PropertiesResult run_properties(const PropertiesConfig& cfg) {
  require(cfg.num_lpts >= 1, "no LPT sources", "PropertiesConfig::num_lpts",
          ">= 1");
  require(cfg.stop > cfg.start, "empty run window",
          "PropertiesConfig::start/stop", "start < stop");
  World world;
  InvariantScope inv{world, cfg.stop};

  topo::ManyToOneConfig topo_cfg;
  topo_cfg.num_servers = cfg.num_lpts;
  topo_cfg.switch_queue =
      switch_queue_for(cfg.protocol, topo_cfg.switch_buffer_pkts, topo_cfg.link_bps);
  const auto topo = build_many_to_one(world.network, topo_cfg);

  PropertiesResult result;
  topo.bottleneck->queue().set_length_trace(&result.queue_trace);

  const auto opts = default_options(cfg.protocol, topo_cfg.link_bps, cfg.min_rto);

  // Goodput: unique in-order bytes delivered to the front-end receivers.
  stats::RateMeter goodput{sim::SimTime::millis(10)};

  std::vector<tcp::Flow> flows;
  std::vector<std::unique_ptr<http::LptSource>> sources;
  for (int i = 0; i < cfg.num_lpts; ++i) {
    flows.push_back(core::make_protocol_flow(world.network, *topo.servers[i],
                                             *topo.front_end, cfg.protocol, opts));
    auto* sim_ptr = &world.simulator;
    flows.back().receiver->set_deliver_callback(
        [&goodput, sim_ptr](std::uint64_t bytes) {
          goodput.add(sim_ptr->now(), bytes);
        });
    sources.push_back(std::make_unique<http::LptSource>(&world.simulator,
                                                        flows.back().sender.get()));
    sources.back()->run(cfg.start, cfg.stop);
  }

  // Let the backlog drain a little past the stop time.
  world.simulator.run_until(cfg.stop + sim::SimTime::millis(100));
  inv.finish();

  result.avg_queue_pkts =
      result.queue_trace.empty() ? 0.0 : result.queue_trace.time_weighted_mean();
  result.max_queue_pkts =
      result.queue_trace.empty() ? 0.0 : result.queue_trace.max_value();
  result.drops = world.network.total_drops();
  for (const auto& flow : flows) result.timeouts += flow.sender->stats().timeouts;
  result.goodput_mbps = goodput.mean_mbps(cfg.start, cfg.stop);
  result.telemetry = world.telemetry_snapshot();
  return result;
}

}  // namespace trim::exp
