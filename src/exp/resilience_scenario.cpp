#include "exp/resilience_scenario.hpp"

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/experiment.hpp"
#include "http/response_stream.hpp"
#include "tcp/rst_responder.hpp"
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

  auto opts = default_options(cfg.protocol, topo_cfg.link_bps, cfg.min_rto);
  if (cfg.churn) {
    opts.tcp.simulate_handshake = true;
    opts.tcp.lifecycle = cfg.lifecycle;
  }

  // Persistent mode: one long-lived flow per server.
  std::vector<tcp::Flow> flows;
  std::vector<std::unique_ptr<http::ResponseStream>> streams;

  // Churn mode: each server runs its messages serially, one fresh
  // connection per message, reaping the endpoints once both reach a
  // terminal state (exactly like run_connection_storm).
  struct ChurnServer {
    int remaining = 0;  // messages not yet started
    std::uint64_t opened = 0;
    std::uint64_t graceful = 0;
    std::uint64_t aborted = 0;
    std::uint64_t acked_bytes = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t syn_retx = 0;
    std::uint64_t fin_retx = 0;
    std::uint64_t rst_sent = 0;
    bool sender_done = false;
    bool receiver_done = false;
    bool reaped = false;
    tcp::Flow live;
  };
  std::vector<ChurnServer> churn;
  std::unique_ptr<tcp::ListenQueue> backlog;
  std::vector<std::unique_ptr<tcp::RstResponder>> responders;
  std::function<void(int)> open_next;

  if (cfg.churn) {
    churn.resize(static_cast<std::size_t>(cfg.num_servers));
    backlog = std::make_unique<tcp::ListenQueue>(cfg.churn_backlog);
    inv.watch(*backlog);
    responders.push_back(std::make_unique<tcp::RstResponder>(topo.front_end));
    topo.front_end->set_default_agent(responders.back().get());
    for (int i = 0; i < cfg.num_servers; ++i) {
      responders.push_back(std::make_unique<tcp::RstResponder>(topo.servers[i]));
      topo.servers[i]->set_default_agent(responders.back().get());
    }

    tcp::ReceiverConfig rcfg;
    rcfg.expect_handshake = true;
    rcfg.lifecycle = cfg.lifecycle;

    // Accumulate the finished connection's stats, free the endpoints, and
    // (via the zero-delay hop — the trigger is a callback inside the
    // endpoint being destroyed) start the next message after the gap.
    auto maybe_reap = [&](int i) {
      auto& s = churn[static_cast<std::size_t>(i)];
      if (s.reaped || !s.sender_done) return;
      if (!s.receiver_done &&
          s.live.receiver->conn_state() != tcp::ConnState::kListen) {
        return;  // still holding a backlog slot; its own close reaps it
      }
      s.reaped = true;
      world.simulator.schedule(sim::SimTime::zero(), [&, i] {
        auto& sv = churn[static_cast<std::size_t>(i)];
        sv.acked_bytes += sv.live.sender->bytes_acked();
        sv.timeouts += sv.live.sender->stats().timeouts;
        sv.retransmits += sv.live.sender->stats().retransmitted_packets;
        const auto& ls = sv.live.sender->lifecycle_stats();
        const auto& lr = sv.live.receiver->lifecycle_stats();
        if (ls.ever_established) {
          // Same histogram the storm scenario fills, so benches pull
          // churn setup percentiles through the one obs::percentiles path.
          world.telemetry.registry()
              .histogram("conn.setup_ms", 0.0, 500.0, 250)
              ->observe(ls.setup_latency.to_millis());
        }
        sv.syn_retx += ls.syn_retx + lr.synack_retx;
        sv.fin_retx += ls.fin_retx + lr.fin_retx;
        sv.rst_sent += ls.rst_sent + lr.rst_sent;
        sv.live.sender.reset();
        sv.live.receiver.reset();
        if (sv.remaining > 0) {
          world.simulator.schedule(cfg.message_gap, [&, i] { open_next(i); });
        }
      });
    };

    open_next = [&, rcfg, maybe_reap](int i) {
      auto& s = churn[static_cast<std::size_t>(i)];
      if (s.remaining <= 0) return;
      --s.remaining;
      ++s.opened;
      s.sender_done = s.receiver_done = s.reaped = false;
      s.live = core::make_protocol_flow(world.network, *topo.servers[i],
                                        *topo.front_end, cfg.protocol, opts, rcfg);
      s.live.receiver->set_listen_queue(backlog.get());
      s.live.sender->add_closed_callback([&, i, maybe_reap](bool graceful,
                                                            sim::SimTime) {
        auto& sv = churn[static_cast<std::size_t>(i)];
        sv.sender_done = true;
        (graceful ? sv.graceful : sv.aborted) += 1;
        maybe_reap(i);
      });
      s.live.receiver->add_closed_callback([&, i, maybe_reap](bool, sim::SimTime) {
        churn[static_cast<std::size_t>(i)].receiver_done = true;
        maybe_reap(i);
      });
      s.live.sender->connect();
      s.live.sender->write(cfg.message_bytes);
      s.live.sender->close();  // FIN follows the last acked byte
    };

    for (int i = 0; i < cfg.num_servers; ++i) {
      churn[static_cast<std::size_t>(i)].remaining = cfg.messages_per_server;
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
    for (int i = 0; i < cfg.num_servers; ++i) {
      auto& s = churn[static_cast<std::size_t>(i)];
      // A connection still live at the deadline contributes its stats but
      // no close of either kind.
      if (s.live.sender != nullptr) {
        s.acked_bytes += s.live.sender->bytes_acked();
        s.timeouts += s.live.sender->stats().timeouts;
        s.retransmits += s.live.sender->stats().retransmitted_packets;
        const auto& ls = s.live.sender->lifecycle_stats();
        const auto& lr = s.live.receiver->lifecycle_stats();
        if (ls.ever_established) {
          world.telemetry.registry()
              .histogram("conn.setup_ms", 0.0, 500.0, 250)
              ->observe(ls.setup_latency.to_millis());
        }
        s.syn_retx += ls.syn_retx + lr.synack_retx;
        s.fin_retx += ls.fin_retx + lr.fin_retx;
        s.rst_sent += ls.rst_sent + lr.rst_sent;
      }
      acked_bytes += s.acked_bytes;
      result.total_timeouts += s.timeouts;
      result.messages_completed += s.graceful;  // an abort forfeits its message
      result.connections_opened += s.opened;
      result.graceful_closes += s.graceful;
      result.aborted_closes += s.aborted;
      result.syn_retx += s.syn_retx;
      result.fin_retx += s.fin_retx;
      result.rst_sent += s.rst_sent;

      obs::FlowSummary fs;
      fs.flow = static_cast<net::FlowId>(i + 1);  // per-server conn aggregate
      fs.protocol = tcp::to_string(cfg.protocol);
      fs.goodput_mbps =
          static_cast<double>(s.acked_bytes) * 8.0 / active_for_flows_s / 1e6;
      fs.retransmits = s.retransmits;
      fs.timeouts = s.timeouts;
      result.flow_summaries.push_back(std::move(fs));
    }
    result.churn_backlog = backlog->stats();
  } else {
    for (int i = 0; i < cfg.num_servers; ++i) {
      acked_bytes += flows[i].sender->bytes_acked();
      result.total_timeouts += flows[i].sender->stats().timeouts;
      result.messages_completed +=
          flows[i].sender->stats().completed_message_times().size();

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
