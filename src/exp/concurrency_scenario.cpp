#include "exp/concurrency_scenario.hpp"

#include <memory>
#include <vector>

#include "exp/experiment.hpp"
#include "http/lpt_source.hpp"
#include "stats/summary.hpp"
#include "topo/many_to_one.hpp"

namespace trim::exp {

ConcurrencyResult run_concurrency(const ConcurrencyConfig& cfg) {
  require(cfg.num_spt_servers >= 1, "no SPT servers",
          "ConcurrencyConfig::num_spt_servers", ">= 1");
  require(cfg.num_lpt_servers >= 0, "negative LPT server count",
          "ConcurrencyConfig::num_lpt_servers", ">= 0");
  static_assert(ConcurrencyConfig::lpt_start < ConcurrencyConfig::spt_start);
  require(cfg.run_until > cfg.spt_start, "bad schedule",
          "ConcurrencyConfig::run_until", "> spt_start (0.3 s)");
  World world;
  InvariantScope inv{world, cfg.run_until};

  topo::ManyToOneConfig topo_cfg;
  topo_cfg.num_servers = cfg.num_spt_servers + cfg.num_lpt_servers;
  topo_cfg.switch_queue =
      switch_queue_for(cfg.protocol, topo_cfg.switch_buffer_pkts, topo_cfg.link_bps);
  const auto topo = build_many_to_one(world.network, topo_cfg);

  const auto opts = default_options(cfg.protocol, topo_cfg.link_bps, cfg.min_rto);

  std::vector<tcp::Flow> flows;
  std::vector<std::unique_ptr<http::LptSource>> lpts;

  // Long trains run for the whole test (paper: "from 0.1 s to the end").
  for (int i = 0; i < cfg.num_lpt_servers; ++i) {
    flows.push_back(core::make_protocol_flow(world.network, *topo.servers[i],
                                             *topo.front_end, cfg.protocol, opts));
    lpts.push_back(std::make_unique<http::LptSource>(&world.simulator,
                                                     flows.back().sender.get()));
    lpts.back()->run(cfg.lpt_start, cfg.run_until);
  }

  // Short trains burst concurrently at 0.3 s on warm persistent
  // connections: each SPT server first exchanges small responses from
  // 0.1 s (inflating legacy TCP's window exactly as in Sec. II-B-1), then
  // bursts its 10-packet SPT with whatever window it inherited.
  sim::Rng rng{cfg.seed};
  std::vector<tcp::TcpSender*> spt_senders;
  std::vector<std::uint64_t> spt_ids(cfg.num_spt_servers, 0);
  const std::uint64_t spt_bytes =
      static_cast<std::uint64_t>(cfg.spt_packets) * opts.tcp.mss;
  const auto warmup_start = cfg.lpt_start;
  const auto warmup_window = cfg.spt_start - warmup_start - sim::SimTime::millis(20);
  for (int i = 0; i < cfg.num_spt_servers; ++i) {
    auto* server = topo.servers[cfg.num_lpt_servers + i];
    flows.push_back(core::make_protocol_flow(world.network, *server, *topo.front_end,
                                             cfg.protocol, opts));
    auto* sender = flows.back().sender.get();
    spt_senders.push_back(sender);

    sim::SimTime t = warmup_start;
    const auto gap = warmup_window / std::max(cfg.warmup_responses, 1);
    for (int r = 0; r < cfg.warmup_responses; ++r) {
      const auto bytes = static_cast<std::uint64_t>(rng.uniform_int(
          static_cast<std::int64_t>(cfg.warmup_min_bytes),
          static_cast<std::int64_t>(cfg.warmup_max_bytes)));
      world.simulator.schedule_at(t, [sender, bytes] { sender->write(bytes); });
      t += gap;
    }

    auto* id_slot = &spt_ids[i];
    world.simulator.schedule_at(cfg.spt_start, [sender, spt_bytes, id_slot] {
      *id_slot = sender->write(spt_bytes);
    });
  }

  world.simulator.run_until(cfg.run_until);
  inv.finish();

  ConcurrencyResult result;
  result.total_spts = cfg.num_spt_servers;
  stats::Summary summary;
  for (int i = 0; i < cfg.num_spt_servers; ++i) {
    auto* sender = spt_senders[i];
    result.spt_timeouts += sender->stats().timeouts;
    const auto& spt = sender->stats().messages().at(spt_ids[i]);
    if (spt.done()) summary.add(spt.completion_time().to_millis());

    obs::FlowSummary fs;
    fs.flow = sender->flow_id();
    fs.protocol = tcp::to_string(cfg.protocol);
    fs.completion_s = spt.done() ? spt.completion_time().to_seconds() : -1.0;
    fs.retransmits = sender->stats().retransmitted_packets;
    fs.timeouts = sender->stats().timeouts;
    result.flow_summaries.push_back(std::move(fs));
  }
  result.completed_spts = static_cast<int>(summary.count());
  if (!summary.empty()) {
    result.act_ms = summary.mean();
    result.min_ms = summary.min();
    result.max_ms = summary.max();
  }
  result.telemetry = world.telemetry_snapshot();
  return result;
}

}  // namespace trim::exp
