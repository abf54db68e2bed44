#include "exp/connection_storm_scenario.hpp"

#include <memory>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "http/short_connections.hpp"
#include "obs/events.hpp"
#include "sim/random.hpp"
#include "topo/two_tier.hpp"

namespace trim::exp {

void validate(const ConnectionStormConfig& cfg) {
  require(cfg.num_switches >= 1 && cfg.num_switches <= 64, "bad switch count",
          "ConnectionStormConfig::num_switches", "[1, 64]");
  require(cfg.clients_per_switch >= 1 && cfg.clients_per_switch <= 1024,
          "bad client count", "ConnectionStormConfig::clients_per_switch",
          "[1, 1024]");
  require(cfg.connections_total >= 1, "no connections to open",
          "ConnectionStormConfig::connections_total", ">= 1");
  require(cfg.arrival_rate_cps > 0.0, "non-positive storm arrival rate",
          "ConnectionStormConfig::arrival_rate_cps", "> 0 connections/sec");
  require(cfg.request_bytes >= 1, "empty request",
          "ConnectionStormConfig::request_bytes", ">= 1");
  require(cfg.run_until > cfg.start, "run window is empty",
          "ConnectionStormConfig::start/run_until", "start < run_until");
  require(cfg.min_rto > sim::SimTime::zero(), "non-positive RTO floor",
          "ConnectionStormConfig::min_rto", "> 0");
  require(cfg.max_rto >= cfg.min_rto, "RTO cap below the floor",
          "ConnectionStormConfig::max_rto", ">= min_rto");
  tcp::validate(cfg.backlog);
  tcp::validate(cfg.ports);
  tcp::validate(cfg.lifecycle);
  fault::validate(cfg.bottleneck_fault);
}

ConnectionStormResult run_connection_storm(const ConnectionStormConfig& cfg) {
  validate(cfg);
  World world{cfg.shards};

  topo::TwoTierConfig topo_cfg;
  topo_cfg.num_switches = cfg.num_switches;
  topo_cfg.servers_per_switch = cfg.clients_per_switch;
  topo_cfg.switch_queue = switch_queue_for(cfg.protocol, topo_cfg.switch_buffer_pkts,
                                           topo_cfg.edge_bps);
  const auto topo = build_two_tier(world.network, topo_cfg);

  std::vector<net::Host*> clients;
  for (const auto& group : topo.servers) {
    clients.insert(clients.end(), group.begin(), group.end());
  }

  std::unique_ptr<fault::FaultInjector> bottleneck_fault;
  if (cfg.bottleneck_fault.any_enabled()) {
    bottleneck_fault = std::make_unique<fault::FaultInjector>(&world.simulator,
                                                              cfg.bottleneck_fault);
    bottleneck_fault->attach(*topo.frontend_link);
  }

  InvariantScope inv{world, cfg.run_until};

  auto opts = default_options(cfg.protocol, topo_cfg.edge_bps, cfg.min_rto);
  opts.tcp.max_rto = cfg.max_rto;
  http::ShortConnections conns{world.network, *topo.front_end, clients, cfg.protocol,
                               opts, cfg.backlog, cfg.lifecycle};
  inv.watch(conns.backlog());
  std::vector<std::unique_ptr<tcp::PortAllocator>> ports;
  ports.reserve(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    ports.push_back(
        std::make_unique<tcp::PortAllocator>(&world.simulator, cfg.ports));
    ports.back()->set_telemetry_subject(obs::subject_id(clients[i]->name()));
  }

  ConnectionStormResult result;

  // The storm schedule: Poisson arrivals onto uniformly random clients,
  // all drawn now from one stream so the schedule never depends on how
  // the run itself unfolds.
  sim::Rng rng{cfg.seed};
  const auto mean_gap = sim::SimTime::seconds(1.0 / cfg.arrival_rate_cps);
  auto at = cfg.start;
  for (int i = 0; i < cfg.connections_total; ++i) {
    const auto client = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(clients.size()) - 1));
    world.simulator.schedule_at(at, [&, client] {
      const auto port = ports[client]->allocate();
      if (!port) {
        ++result.no_port_skips;
        obs::emit(&world.simulator, obs::EventKind::kPortExhausted,
                  obs::subject_id(clients[client]->name()),
                  static_cast<double>(ports[client]->ports_held()));
        return;
      }
      ++result.connections_attempted;
      // The reaped connection's port comes back at once after a graceful
      // close (the sender's own TIME_WAIT already dwelled), with an
      // allocator-enforced hold after an abort.
      conns.open(client, cfg.request_bytes,
                 [&, client, p = *port](const http::ShortConnections::Connection& c) {
                   if (c.stats().sender.graceful_close) {
                     ports[client]->release(p);
                   } else {
                     ports[client]->release_with_hold(p, cfg.lifecycle.time_wait);
                   }
                 });
    });
    at += rng.exponential_time(mean_gap);
  }

  world.run_until(cfg.run_until);

  // Final accounting. Live (un-reaped) connections at the deadline are
  // stuck: report them as an invariant violation so a wedged state
  // machine can never look like a passing run.
  //
  // Setup latencies also land in a registry histogram so reports and
  // benches share one percentile path (obs::percentiles).
  obs::Histogram* setup_ms =
      world.telemetry.registry().histogram("conn.setup_ms", 0.0, 500.0, 250);
  for (const auto& c : conns.connections()) {
    if (!c.reaped) {
      ++result.stuck_connections;
      if (inv.checker() != nullptr) {
        inv.checker()->report(
            "connection-drain",
            "flow " + std::to_string(c.flow.id) + " not CLOSED by deadline: "
                "sender " + tcp::to_string(c.flow.sender->conn_state()) +
                ", receiver " + tcp::to_string(c.flow.receiver->conn_state()));
      }
    }
    const auto s = c.stats();
    if (s.sender.ever_established) {
      ++result.connections_established;
      result.setup_latency_s.push_back(s.sender.setup_latency.to_seconds());
      setup_ms->observe(s.sender.setup_latency.to_millis());
    }
    if (c.sender_closed()) {
      if (s.sender.graceful_close) ++result.graceful_closes;
      else ++result.aborted_closes;
    }
    result.syn_retx += s.sender.syn_retx + s.receiver.synack_retx;
    result.fin_retx += s.sender.fin_retx + s.receiver.fin_retx;
    result.rst_sent += s.sender.rst_sent + s.receiver.rst_sent;
    result.rst_received += s.sender.rst_received + s.receiver.rst_received;
    result.challenge_acks += s.sender.challenge_acks + s.receiver.challenge_acks;
  }
  result.backlog = conns.backlog().stats();
  for (const auto& p : ports) {
    result.ports.allocations += p->stats().allocations;
    result.ports.failed_allocations += p->stats().failed_allocations;
    result.ports.exhaustion_episodes += p->stats().exhaustion_episodes;
    result.ports.timewait_reclaims += p->stats().timewait_reclaims;
  }
  result.queue_drops = world.network.total_drops();
  if (bottleneck_fault) result.bottleneck_faults = bottleneck_fault->stats();

  result.invariant_violations = inv.finish(/*fail_hard=*/false);
  if (inv.checker() != nullptr) {
    result.invariant_checkpoints = inv.checker()->checkpoints_run();
  }
  result.telemetry = world.telemetry_snapshot();
  return result;
}

}  // namespace trim::exp
