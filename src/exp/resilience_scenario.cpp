#include "exp/resilience_scenario.hpp"

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exp/experiment.hpp"
#include "http/response_stream.hpp"
#include "http/short_connections.hpp"
#include "topo/many_to_one.hpp"

namespace trim::exp {

void validate(const ResilienceConfig& cfg) {
  require(cfg.num_servers >= 1 && cfg.num_servers <= 4096, "bad server count",
          "ResilienceConfig::num_servers", "[1, 4096]");
  require(cfg.messages_per_server >= 1, "no messages to send",
          "ResilienceConfig::messages_per_server", ">= 1");
  require(cfg.run_until > cfg.start, "run window is empty",
          "ResilienceConfig::start/run_until", "start < run_until");
  require(cfg.min_rto > sim::SimTime::zero(), "non-positive RTO floor",
          "ResilienceConfig::min_rto", "> 0");
  fault::validate(cfg.bottleneck_fault);
  if (cfg.churn) {
    tcp::validate(cfg.churn_backlog);
    tcp::validate(cfg.lifecycle);
  }
}

ResilienceResult run_resilience(const ResilienceConfig& cfg) {
  validate(cfg);
  World world;

  topo::ManyToOneConfig topo_cfg;
  topo_cfg.num_servers = cfg.num_servers;
  topo_cfg.switch_queue =
      switch_queue_for(cfg.protocol, topo_cfg.switch_buffer_pkts, topo_cfg.link_bps);
  const auto topo = build_many_to_one(world.network, topo_cfg);

  // Fault injector on the bottleneck. Only built when the profile enables
  // something, so a clean config leaves the packet path untouched.
  std::unique_ptr<fault::FaultInjector> bottleneck_fault;
  if (cfg.bottleneck_fault.any_enabled()) {
    bottleneck_fault = std::make_unique<fault::FaultInjector>(&world.simulator,
                                                              cfg.bottleneck_fault);
    bottleneck_fault->attach(*topo.bottleneck);
  }

  InvariantScope inv{world, cfg.run_until};

  const auto opts = default_options(cfg.protocol, topo_cfg.link_bps, cfg.min_rto);

  // Persistent mode: one long-lived flow per server.
  std::vector<tcp::Flow> flows;
  std::vector<std::unique_ptr<http::ResponseStream>> streams;

  // Churn mode: each server runs its messages serially, one fresh
  // connection per message; the next opens `message_gap` after the
  // previous one is reaped.
  const auto num_servers = static_cast<std::size_t>(cfg.num_servers);
  std::optional<http::ShortConnections> churn;
  std::vector<int> remaining;  // [server] messages not yet started
  std::vector<const http::ShortConnections::Connection*> current;  // [server]
  std::function<void(std::size_t)> open_next;
  // Same histogram the storm scenario fills, so benches pull churn setup
  // percentiles through the one obs::percentiles path.
  auto observe_setup = [&](const http::ShortConnections::Stats& s) {
    if (s.sender.ever_established) {
      world.telemetry.registry()
          .histogram("conn.setup_ms", 0.0, 500.0, 250)
          ->observe(s.sender.setup_latency.to_millis());
    }
  };

  if (cfg.churn) {
    churn.emplace(world.network, *topo.front_end, topo.servers, cfg.protocol, opts,
                  cfg.churn_backlog, cfg.lifecycle);
    inv.watch(churn->backlog());
    remaining.assign(num_servers, cfg.messages_per_server);
    current.resize(num_servers);
    open_next = [&](std::size_t i) {
      --remaining[i];
      current[i] = &churn->open(i, cfg.message_bytes, [&, i](const auto& c) {
        observe_setup(c.stats());
        if (remaining[i] > 0) {
          world.simulator.schedule(cfg.message_gap, [&, i] { open_next(i); });
        }
      });
    };
    for (std::size_t i = 0; i < num_servers; ++i) {
      world.simulator.schedule_at(cfg.start, [&, i] { open_next(i); });
    }
  } else {
    for (int i = 0; i < cfg.num_servers; ++i) {
      flows.push_back(core::make_protocol_flow(world.network, *topo.servers[i],
                                               *topo.front_end, cfg.protocol, opts));
      // Closed-loop gapped train: the next response goes out `message_gap`
      // after the previous one completes, so every message (after the
      // first) starts from an idle connection — the TRIM probing case.
      streams.push_back(std::make_unique<http::ResponseStream>(
          &world.simulator, flows.back().sender.get(),
          [] { return ResilienceConfig::message_bytes; },
          [] { return ResilienceConfig::message_gap; }));
      streams.back()->run(cfg.start, sim::SimTime::max(),
                          static_cast<std::uint64_t>(cfg.messages_per_server));
    }
  }

  world.simulator.run_until(cfg.run_until);

  ResilienceResult result;
  result.messages_total =
      static_cast<std::uint64_t>(cfg.num_servers) * cfg.messages_per_server;
  std::uint64_t acked_bytes = 0;
  const double active_for_flows_s = (cfg.run_until - cfg.start).to_seconds();
  if (cfg.churn) {
    // Per-server aggregates of every connection the server opened. One
    // still open at the deadline counts its stats, and its close only once
    // its sender has closed; an abort forfeits its message.
    result.flow_summaries.resize(num_servers);
    std::vector<std::uint64_t> server_acked(num_servers);
    for (const auto& c : churn->connections()) {
      const auto s = c.stats();
      auto& fs = result.flow_summaries[c.client];
      server_acked[c.client] += s.acked_bytes;
      fs.timeouts += s.timeouts;
      fs.retransmits += s.retransmits;
      if (c.sender_closed()) {
        ++(s.sender.graceful_close ? result.graceful_closes : result.aborted_closes);
      }
      result.syn_retx += s.sender.syn_retx + s.receiver.synack_retx;
      result.fin_retx += s.sender.fin_retx + s.receiver.fin_retx;
      result.rst_sent += s.sender.rst_sent + s.receiver.rst_sent;
    }
    for (std::size_t i = 0; i < num_servers; ++i) {
      // Observed after the reaped ones, in server order (the histogram's
      // sum depends on the order).
      if (!current[i]->reaped) observe_setup(current[i]->stats());
      auto& fs = result.flow_summaries[i];
      fs.flow = static_cast<net::FlowId>(i + 1);  // per-server conn aggregate
      fs.protocol = tcp::to_string(cfg.protocol);
      fs.goodput_mbps =
          static_cast<double>(server_acked[i]) * 8.0 / active_for_flows_s / 1e6;
      acked_bytes += server_acked[i];
      result.total_timeouts += fs.timeouts;
    }
    result.connections_opened = churn->connections().size();
    result.messages_completed = result.graceful_closes;
    result.churn_backlog = churn->backlog().stats();
  } else {
    for (int i = 0; i < cfg.num_servers; ++i) {
      acked_bytes += flows[i].sender->bytes_acked();
      result.total_timeouts += flows[i].sender->stats().timeouts;
      result.messages_completed += flows[i].sender->stats().completed_messages();

      obs::FlowSummary fs;
      fs.flow = flows[i].sender->flow_id();
      fs.protocol = tcp::to_string(cfg.protocol);
      fs.goodput_mbps = static_cast<double>(flows[i].sender->bytes_acked()) * 8.0 /
                        active_for_flows_s / 1e6;
      fs.retransmits = flows[i].sender->stats().retransmitted_packets;
      fs.timeouts = flows[i].sender->stats().timeouts;
      result.flow_summaries.push_back(std::move(fs));
    }
  }
  result.all_completed = result.messages_completed == result.messages_total;
  const double active_s = (cfg.run_until - cfg.start).to_seconds();
  result.goodput_mbps = static_cast<double>(acked_bytes) * 8.0 / active_s / 1e6;
  result.queue_drops = world.network.total_drops();
  if (bottleneck_fault) result.bottleneck_faults = bottleneck_fault->stats();

  // Collect (don't abort): the caller decides how loud to fail — the
  // bench exits non-zero, tests assert on the count.
  result.invariant_violations = inv.finish(/*fail_hard=*/false);
  if (inv.checker() != nullptr) {
    result.invariant_checkpoints = inv.checker()->checkpoints_run();
  }
  result.telemetry = world.telemetry_snapshot();
  return result;
}

}  // namespace trim::exp
