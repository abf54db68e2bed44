#include "exp/impairment_scenario.hpp"

#include <algorithm>

#include "exp/experiment.hpp"
#include "stats/rate_meter.hpp"
#include "topo/many_to_one.hpp"

namespace trim::exp {

ImpairmentResult run_impairment(const ImpairmentConfig& cfg) {
  static_assert(ImpairmentConfig::response_start < ImpairmentConfig::lpt_start);
  static_assert(ImpairmentConfig::lpt_start < ImpairmentConfig::run_until);
  World world;
  InvariantScope inv{world, cfg.run_until};
  sim::Rng rng{cfg.seed};

  topo::ManyToOneConfig topo_cfg;
  topo_cfg.num_servers = cfg.num_servers;
  topo_cfg.switch_queue =
      switch_queue_for(cfg.protocol, topo_cfg.switch_buffer_pkts, topo_cfg.link_bps);
  const auto topo = build_many_to_one(world.network, topo_cfg);

  ImpairmentResult result;
  topo.bottleneck->queue().set_length_trace(&result.queue_trace);
  stats::RateMeter meter{sim::SimTime::millis(10)};
  topo.bottleneck->set_delivery_meter(&meter);

  const auto opts =
      default_options(cfg.protocol, topo_cfg.link_bps, sim::SimTime::millis(200));

  std::vector<tcp::Flow> flows;
  for (int i = 0; i < cfg.num_servers; ++i) {
    flows.push_back(core::make_protocol_flow(world.network, *topo.servers[i],
                                             *topo.front_end, cfg.protocol, opts));
  }
  flows.back().sender->set_cwnd_trace(&result.cwnd_last_conn);

  // Schedule the 200 small responses per server (open loop, Sec. II-B).
  for (int i = 0; i < cfg.num_servers; ++i) {
    tcp::TcpSender* s = flows[i].sender.get();
    sim::SimTime t = cfg.response_start;
    for (int r = 0; r < cfg.responses_per_server; ++r) {
      const auto bytes = static_cast<std::uint64_t>(rng.uniform_int(
          static_cast<std::int64_t>(cfg.response_min_bytes),
          static_cast<std::int64_t>(cfg.response_max_bytes)));
      world.simulator.schedule_at(t, [s, bytes] { s->write(bytes); });
      t += rng.exponential_time(cfg.response_mean_gap);
    }
  }

  // Record the windows each connection will inherit, just before the LPTs.
  result.cwnd_at_lpt_start.resize(cfg.num_servers, 0.0);
  world.simulator.schedule_at(cfg.lpt_start - sim::SimTime::micros(1), [&] {
    for (int i = 0; i < cfg.num_servers; ++i) {
      result.cwnd_at_lpt_start[i] = flows[i].sender->cwnd();
    }
  });

  // The long trains at 0.5 s; remember each LPT's message id so its
  // completion can be read back precisely.
  std::vector<std::uint64_t> lpt_ids(cfg.num_servers, 0);
  for (int i = 0; i < cfg.num_servers; ++i) {
    world.simulator.schedule_at(cfg.lpt_start, [&, i] {
      lpt_ids[i] = flows[i].sender->write(cfg.lpt_bytes);
    });
  }

  world.simulator.run_until(cfg.run_until);
  inv.finish();

  result.throughput_mbps = meter.series_mbps();
  result.all_completed = true;
  for (int i = 0; i < cfg.num_servers; ++i) {
    result.timeouts_per_conn.push_back(flows[i].sender->stats().timeouts);
    const auto& lpt = flows[i].sender->stats().messages().at(lpt_ids[i]);
    if (lpt.done()) {
      result.last_lpt_completion = std::max(result.last_lpt_completion, *lpt.completed);
    } else {
      result.all_completed = false;
    }
  }
  result.total_drops = world.network.total_drops();
  result.telemetry = world.telemetry_snapshot();
  return result;
}

}  // namespace trim::exp
