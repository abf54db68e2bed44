#include "http/short_connections.hpp"

#include <utility>

#include "sim/simulator.hpp"

namespace trim::http {

ShortConnections::Stats ShortConnections::Connection::stats() const {
  if (flow.sender == nullptr) return final_;
  return {flow.sender->lifecycle_stats(), flow.receiver->lifecycle_stats(),
          flow.sender->bytes_acked(), flow.sender->stats().timeouts,
          flow.sender->stats().retransmitted_packets};
}

ShortConnections::ShortConnections(net::Network& network, net::Host& server,
                                   std::vector<net::Host*> clients,
                                   tcp::Protocol protocol, core::ProtocolOptions opts,
                                   tcp::ListenQueueConfig backlog,
                                   tcp::LifecycleConfig lifecycle)
    : network_{network}, server_{server}, clients_{std::move(clients)},
      protocol_{protocol}, opts_{std::move(opts)},
      receiver_cfg_{.expect_handshake = true, .lifecycle = lifecycle},
      backlog_{backlog} {
  opts_.tcp.simulate_handshake = true;
  opts_.tcp.lifecycle = lifecycle;
  server_.set_default_agent(&responders_.emplace_back(&server_));
  for (net::Host* c : clients_) c->set_default_agent(&responders_.emplace_back(c));
}

const ShortConnections::Connection& ShortConnections::open(std::size_t client,
                                                           std::uint64_t bytes,
                                                           ReapHook on_reaped) {
  Connection& c = conns_.emplace_back();
  c.client = client;
  c.on_reaped_ = std::move(on_reaped);
  c.flow = core::make_protocol_flow(network_, *clients_.at(client), server_, protocol_,
                                    opts_, receiver_cfg_);
  c.flow.receiver->set_listen_queue(&backlog_);
  c.flow.sender->add_closed_callback([this, &c](bool, sim::SimTime) { maybe_reap(c); });
  c.flow.receiver->add_closed_callback([this, &c](bool, sim::SimTime) { maybe_reap(c); });
  c.flow.sender->connect();
  c.flow.sender->write(bytes);
  c.flow.sender->close();
  return c;
}

void ShortConnections::maybe_reap(Connection& c) {
  // Both callbacks land here; an endpoint is CLOSED before its callbacks run.
  if (c.reaped || !tcp::is_terminal(c.flow.sender->conn_state()) ||
      !tcp::is_terminal(c.flow.receiver->conn_state())) {
    return;
  }
  c.reaped = true;
  server_.simulator()->schedule(sim::SimTime::zero(), [&c] {
    c.final_ = c.stats();
    c.on_reaped_(c);
    c.flow.sender.reset();
    c.flow.receiver.reset();
  });
}

}  // namespace trim::http
