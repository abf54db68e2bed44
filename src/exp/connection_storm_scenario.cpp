#include "exp/connection_storm_scenario.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/experiment.hpp"
#include "obs/events.hpp"
#include "sim/random.hpp"
#include "tcp/rst_responder.hpp"
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

namespace {

// One live connection of the storm. Endpoints are reaped (unwatched and
// destroyed) once both sides reach a terminal state; the struct stays so
// the final accounting still sees every connection.
struct Conn {
  tcp::Flow flow;
  int client = 0;
  int port = 0;
  bool sender_closed = false;
  bool sender_graceful = false;
  bool receiver_closed = false;
  bool reaped = false;
  tcp::LifecycleStats sender_stats;    // snapshot taken at reap time
  tcp::LifecycleStats receiver_stats;
};

}  // namespace

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
  if (bottleneck_fault) inv.watch(*bottleneck_fault);

  // Shared server-side SYN backlog, and one ephemeral-port allocator per
  // client host.
  tcp::ListenQueue backlog{cfg.backlog};
  inv.watch(backlog);
  std::vector<std::unique_ptr<tcp::PortAllocator>> ports;
  ports.reserve(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    ports.push_back(
        std::make_unique<tcp::PortAllocator>(&world.simulator, cfg.ports));
    ports.back()->set_telemetry_subject(obs::subject_id(clients[i]->name()));
  }

  // Closed-port behavior for straggler segments of reaped connections.
  std::vector<std::unique_ptr<tcp::RstResponder>> responders;
  responders.push_back(std::make_unique<tcp::RstResponder>(topo.front_end));
  topo.front_end->set_default_agent(responders.back().get());
  for (net::Host* c : clients) {
    responders.push_back(std::make_unique<tcp::RstResponder>(c));
    c->set_default_agent(responders.back().get());
  }

  auto opts = default_options(cfg.protocol, topo_cfg.edge_bps, cfg.min_rto);
  opts.tcp.max_rto = cfg.max_rto;
  opts.tcp.simulate_handshake = true;
  opts.tcp.lifecycle = cfg.lifecycle;
  tcp::ReceiverConfig rcfg;
  rcfg.expect_handshake = true;
  rcfg.lifecycle = cfg.lifecycle;

  ConnectionStormResult result;
  std::vector<std::unique_ptr<Conn>> conns;
  conns.reserve(static_cast<std::size_t>(cfg.connections_total));

  // Reap a connection once both endpoints are terminal: snapshot the
  // lifecycle stats, return the ephemeral port (immediately after a
  // graceful close — the sender's own TIME_WAIT already dwelled — or with
  // an allocator-enforced hold after an abort), drop the invariant
  // watches, and destroy the endpoints. Deferred to a zero-delay event:
  // the trigger is a callback running inside the endpoint being destroyed.
  auto maybe_reap = [&](Conn* c) {
    if (c->reaped || !c->sender_closed) return;
    // A passive endpoint still in LISTEN after the sender is done never
    // had a server-side connection at all (the backlog refused or the SYN
    // never landed before give-up): that flow is drained, not stuck.
    if (!c->receiver_closed &&
        c->flow.receiver->conn_state() != tcp::ConnState::kListen) {
      return;
    }
    c->reaped = true;
    world.simulator.schedule(sim::SimTime::zero(), [&, c] {
      c->sender_stats = c->flow.sender->lifecycle_stats();
      c->receiver_stats = c->flow.receiver->lifecycle_stats();
      if (c->sender_graceful) {
        ports[c->client]->release(c->port);
      } else {
        ports[c->client]->release_with_hold(c->port, cfg.lifecycle.time_wait);
      }
      inv.unwatch(*c->flow.sender);
      inv.unwatch(*c->flow.receiver);
      c->flow.sender.reset();
      c->flow.receiver.reset();
    });
  };

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
      auto conn = std::make_unique<Conn>();
      conn->client = static_cast<int>(client);
      conn->port = *port;
      conn->flow = core::make_protocol_flow(world.network, *clients[client],
                                            *topo.front_end, cfg.protocol, opts,
                                            rcfg);
      conn->flow.receiver->set_listen_queue(&backlog);
      inv.watch(*conn->flow.sender);
      inv.watch(*conn->flow.receiver);
      Conn* c = conn.get();
      c->flow.sender->add_closed_callback([&, c](bool graceful, sim::SimTime) {
        c->sender_closed = true;
        c->sender_graceful = graceful;
        maybe_reap(c);
      });
      c->flow.receiver->add_closed_callback([&, c](bool, sim::SimTime) {
        c->receiver_closed = true;
        maybe_reap(c);
      });
      c->flow.sender->connect();
      c->flow.sender->write(cfg.request_bytes);
      c->flow.sender->close();  // FIN follows the last acked byte
      conns.push_back(std::move(conn));
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
  for (const auto& c : conns) {
    if (!c->reaped) {
      ++result.stuck_connections;
      if (inv.checker() != nullptr) {
        inv.checker()->report(
            "connection-drain",
            "flow " + std::to_string(c->flow.id) + " not CLOSED by deadline: "
                "sender " + tcp::to_string(c->flow.sender->conn_state()) +
                ", receiver " + tcp::to_string(c->flow.receiver->conn_state()));
      }
      c->sender_stats = c->flow.sender->lifecycle_stats();
      c->receiver_stats = c->flow.receiver->lifecycle_stats();
    }
    if (c->sender_stats.ever_established) {
      ++result.connections_established;
      result.setup_latency_s.push_back(c->sender_stats.setup_latency.to_seconds());
      setup_ms->observe(c->sender_stats.setup_latency.to_millis());
    }
    if (c->sender_closed) {
      if (c->sender_graceful) ++result.graceful_closes;
      else ++result.aborted_closes;
    }
    result.syn_retx += c->sender_stats.syn_retx + c->receiver_stats.synack_retx;
    result.fin_retx += c->sender_stats.fin_retx + c->receiver_stats.fin_retx;
    result.rst_sent += c->sender_stats.rst_sent + c->receiver_stats.rst_sent;
    result.rst_received +=
        c->sender_stats.rst_received + c->receiver_stats.rst_received;
    result.challenge_acks +=
        c->sender_stats.challenge_acks + c->receiver_stats.challenge_acks;
  }
  result.backlog = backlog.stats();
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
