#include "exp/convergence_scenario.hpp"

#include <memory>
#include <vector>

#include "exp/experiment.hpp"
#include "http/lpt_source.hpp"
#include "stats/rate_meter.hpp"
#include "stats/summary.hpp"
#include "topo/many_to_one.hpp"

namespace trim::exp {

ConvergenceResult run_convergence(const ConvergenceConfig& cfg) {
  require(cfg.stagger > sim::SimTime::zero(), "non-positive stagger",
          "ConvergenceConfig::stagger", "> 0");
  World world;

  topo::ManyToOneConfig topo_cfg;
  topo_cfg.num_servers = cfg.num_connections;
  topo_cfg.link_bps = net::kGbps;  // bottleneck toward the receiver
  topo_cfg.server_link_bps = net::kGbps + 100 * net::kMbps;  // 1.1 Gbps senders
  topo_cfg.switch_queue =
      switch_queue_for(cfg.protocol, topo_cfg.switch_buffer_pkts, topo_cfg.link_bps);
  const auto topo = build_many_to_one(world.network, topo_cfg);

  const auto opts =
      default_options(cfg.protocol, topo_cfg.link_bps, sim::SimTime::millis(200));

  const int n = cfg.num_connections;
  // Flow i: active [first_start + i*stagger, first_stop + i*stagger) where
  // first_stop = first_start + (n+1)*stagger (paper: starts 0.1..8.1 s,
  // stops 12.1..20.1 s with 2 s stagger).
  const auto first_stop = cfg.first_start + cfg.stagger * (n + 1);

  InvariantScope inv{world, cfg.first_start + cfg.stagger * (2 * n + 1)};

  std::vector<tcp::Flow> flows;
  std::vector<std::unique_ptr<http::LptSource>> sources;
  std::vector<std::unique_ptr<stats::RateMeter>> meters;
  for (int i = 0; i < n; ++i) {
    flows.push_back(core::make_protocol_flow(world.network, *topo.servers[i],
                                             *topo.front_end, cfg.protocol, opts));
    meters.push_back(std::make_unique<stats::RateMeter>(cfg.bin));
    auto* meter = meters.back().get();
    auto* sim_ptr = &world.simulator;
    flows.back().receiver->set_deliver_callback([meter, sim_ptr](std::uint64_t bytes) {
      meter->add(sim_ptr->now(), bytes);
    });
    sources.push_back(std::make_unique<http::LptSource>(
        &world.simulator, flows.back().sender.get(), 256 * 1024));
    sources.back()->run(cfg.first_start + cfg.stagger * i, first_stop + cfg.stagger * i);
  }

  ConvergenceResult result;
  result.run_end = first_stop + cfg.stagger * n + sim::SimTime::millis(200);
  world.simulator.run_until(result.run_end);
  inv.finish();

  // Full overlap: all flows active between the last start and the first
  // stop. Fairness is judged over the second half of that window so each
  // protocol gets its convergence time (the paper's point is how *quickly*
  // and tightly flows settle, which the per-flow series shows; the index
  // summarizes the settled state).
  const auto window_lo = cfg.first_start + cfg.stagger * (n - 1);
  const auto overlap_hi = first_stop;
  const auto overlap_lo = window_lo + (overlap_hi - window_lo) / 2;
  for (int i = 0; i < n; ++i) {
    result.per_flow_mbps.push_back(meters[i]->series_mbps());
    result.full_overlap_mbps.push_back(meters[i]->mean_mbps(overlap_lo, overlap_hi));
  }
  result.jain_full_overlap = stats::jain_fairness_index(result.full_overlap_mbps);
  result.telemetry = world.telemetry_snapshot();
  return result;
}

}  // namespace trim::exp
