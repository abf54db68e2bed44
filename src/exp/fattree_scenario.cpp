#include "exp/fattree_scenario.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "exp/experiment.hpp"
#include "stats/summary.hpp"
#include "topo/fat_tree.hpp"
#include "topo/partition.hpp"

namespace trim::exp {

FattreeResult run_fattree(const FattreeConfig& cfg) {
  require(cfg.pods >= 2 && cfg.pods % 2 == 0, "bad fat-tree arity",
          "FattreeConfig::pods", "even, >= 2");
  static_assert(FattreeConfig::small_start < FattreeConfig::big_start);
  require(cfg.run_until > cfg.big_start, "bad schedule", "FattreeConfig::run_until",
          "> big_start (0.5 s)");
  World world{cfg.shards};
  InvariantScope inv{world, cfg.run_until};
  sim::Rng rng{cfg.seed};

  topo::FatTreeConfig topo_cfg;
  topo_cfg.k = cfg.pods;
  topo_cfg.switch_queue = switch_queue_bytes_for(
      cfg.protocol, topo_cfg.switch_buffer_bytes, topo_cfg.link_bps, 1460);
  const auto topo = build_fat_tree(world.network, topo_cfg);
  // Spread pods across the engine's shards before any flow exists —
  // transports bind to their host's (possibly re-homed) simulator.
  topo::shard_network(world.network, world.engine);

  const auto opts = default_options(cfg.protocol, topo_cfg.link_bps, cfg.min_rto);

  const int n = static_cast<int>(topo.hosts.size());
  std::vector<tcp::Flow> flows;
  std::vector<std::uint64_t> big_ids(n, 0);

  for (int i = 0; i < n; ++i) {
    // Random sink, never self.
    int sink = static_cast<int>(rng.uniform_int(0, n - 2));
    if (sink >= i) ++sink;
    flows.push_back(core::make_protocol_flow(world.network, *topo.hosts[i],
                                             *topo.hosts[sink], cfg.protocol, opts));
    auto* sender = flows.back().sender.get();

    // Small objects (2-6 KB), spaced on the persistent connection. The
    // application timer lives on the sending host's shard.
    sim::Simulator* host_sim = topo.hosts[i]->simulator();
    std::uint64_t sent = 0;
    sim::SimTime t = cfg.small_start;
    for (int o = 0; o < cfg.small_objects; ++o) {
      const auto bytes = static_cast<std::uint64_t>(rng.uniform_int(2048, 6144));
      sent += bytes;
      host_sim->schedule_at(t, [sender, bytes] { sender->write(bytes); });
      t += cfg.small_spacing;
    }

    // The big remainder at 0.5 s.
    const std::uint64_t big = cfg.total_bytes > sent ? cfg.total_bytes - sent : 1;
    auto* id_slot = &big_ids[i];
    host_sim->schedule_at(cfg.big_start, [sender, big, id_slot] {
      *id_slot = sender->write(big);
    });
  }

  world.run_until(cfg.run_until);
  inv.finish();

  FattreeResult result;
  result.total_servers = n;
  stats::Summary summary;
  for (int i = 0; i < n; ++i) {
    result.timeouts += flows[i].sender->stats().timeouts;
    const auto& big = flows[i].sender->stats().messages().at(big_ids[i]);
    if (big.done()) {
      // Server completion: first write (0.1 s) to last byte of 1 MB acked.
      summary.add((*big.completed - cfg.small_start).to_millis());
    }
  }
  result.completed_servers = static_cast<int>(summary.count());
  if (!summary.empty()) {
    result.mean_completion_ms = summary.mean();
    result.max_completion_ms = summary.max();
  }
  result.drops = world.network.total_drops();
  result.telemetry = world.telemetry_snapshot();
  result.events_dispatched = world.engine.events_dispatched();
  result.engine = world.engine.run_record();
  return result;
}

}  // namespace trim::exp
