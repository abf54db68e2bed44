#include "exp/multihop_scenario.hpp"

#include <memory>
#include <vector>

#include "exp/experiment.hpp"
#include "http/lpt_source.hpp"
#include "stats/rate_meter.hpp"
#include "topo/multi_hop.hpp"

namespace trim::exp {

namespace {

struct MeteredFlow {
  tcp::Flow flow;
  std::unique_ptr<stats::RateMeter> meter;
  std::unique_ptr<http::LptSource> source;
};

MeteredFlow start_lpt(World& world, net::Host& src, net::Host& dst,
                      tcp::Protocol protocol, const core::ProtocolOptions& opts,
                      sim::SimTime start, sim::SimTime stop) {
  MeteredFlow mf;
  mf.flow = core::make_protocol_flow(world.network, src, dst, protocol, opts);
  mf.meter = std::make_unique<stats::RateMeter>(sim::SimTime::millis(50));
  auto* meter = mf.meter.get();
  auto* sim_ptr = &world.simulator;
  mf.flow.receiver->set_deliver_callback([meter, sim_ptr](std::uint64_t bytes) {
    meter->add(sim_ptr->now(), bytes);
  });
  mf.source = std::make_unique<http::LptSource>(&world.simulator,
                                                mf.flow.sender.get(), 512 * 1024);
  mf.source->run(start, stop);
  return mf;
}

}  // namespace

MultihopResult run_multihop(const MultihopConfig& cfg) {
  require(cfg.group_size >= 1, "empty sender groups", "MultihopConfig::group_size",
          ">= 1");
  require(cfg.stop > cfg.start && cfg.measure_from >= cfg.start &&
              cfg.measure_from < cfg.stop,
          "bad measurement window", "MultihopConfig::start/measure_from/stop",
          "start <= measure_from < stop");
  World world;
  InvariantScope inv{world, cfg.stop};

  topo::MultiHopConfig topo_cfg;
  topo_cfg.group_size = cfg.group_size;
  topo_cfg.switch_queue = switch_queue_for(cfg.protocol, topo_cfg.switch_buffer_pkts,
                                           topo_cfg.bottleneck_bps);
  const auto topo = build_multi_hop(world.network, topo_cfg);

  const auto opts =
      default_options(cfg.protocol, topo_cfg.edge_bps, sim::SimTime::millis(200));

  std::vector<MeteredFlow> group_a, group_b, group_c;
  for (int i = 0; i < cfg.group_size; ++i) {
    group_a.push_back(start_lpt(world, *topo.group_a[i], *topo.front_end,
                                cfg.protocol, opts, cfg.start, cfg.stop));
    group_b.push_back(start_lpt(world, *topo.group_b[i], *topo.front_end,
                                cfg.protocol, opts, cfg.start, cfg.stop));
    group_c.push_back(start_lpt(world, *topo.group_c[i], *topo.group_d[i],
                                cfg.protocol, opts, cfg.start, cfg.stop));
  }

  world.simulator.run_until(cfg.stop);
  inv.finish();

  MultihopResult result;
  auto group_mean = [&](const std::vector<MeteredFlow>& group) {
    double sum = 0.0;
    for (const auto& mf : group) {
      sum += mf.meter->mean_mbps(cfg.measure_from, cfg.stop);
    }
    return sum / static_cast<double>(group.size());
  };
  result.group_a_mbps = group_mean(group_a);
  result.group_b_mbps = group_mean(group_b);
  result.group_c_mbps = group_mean(group_c);

  for (const auto* group : {&group_a, &group_b, &group_c}) {
    for (const auto& mf : *group) result.timeouts += mf.flow.sender->stats().timeouts;
  }
  result.drops = world.network.total_drops();
  result.telemetry = world.telemetry_snapshot();
  return result;
}

}  // namespace trim::exp
