// Non-persistent HTTP: one fresh TCP connection per response, the
// alternative persistent connections avoid because setup and teardown cost
// bandwidth and host resources (Sec. I, II-B-1). ResponseStream is the
// persistent counterpart.
//
// Built on one server host and its client hosts, a ShortConnections owns
// the handshake options, the server's listen backlog and a
// tcp::RstResponder per host, so segments of torn-down connections draw a
// RST as from a real stack's closed port. It is the one place that knows
// when a connection is over: the sender has closed, and the receiver has
// closed or never left LISTEN (refused, or its SYN never landed). A
// zero-delay event (the trigger is a callback inside an endpoint) then
// keeps the final stats, runs the caller's hook and destroys the endpoints.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "core/sender_factory.hpp"
#include "sim/inline_callback.hpp"
#include "tcp/flow.hpp"
#include "tcp/lifecycle.hpp"
#include "tcp/listen_queue.hpp"
#include "tcp/rst_responder.hpp"

namespace trim::http {

class ShortConnections {
 public:
  // Both lifecycles and the sender's transport counters.
  struct Stats {
    tcp::LifecycleStats sender;
    tcp::LifecycleStats receiver;
    std::uint64_t acked_bytes = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t retransmits = 0;
  };

  class Connection;
  using ReapHook = sim::InlineFunction<void(const Connection&)>;

  // One opened connection; the record outlives its endpoints.
  class Connection {
   public:
    tcp::Flow flow;          // both endpoints are null once reaped
    std::size_t client = 0;  // index into the client hosts
    bool reaped = false;     // over; the endpoints are destroyed at once

    // The final stats once reaped, the live endpoints' before.
    Stats stats() const;
    bool sender_closed() const {  // gracefully or not
      return flow.sender == nullptr || tcp::is_terminal(flow.sender->conn_state());
    }

   private:
    friend class ShortConnections;
    Stats final_;
    ReapHook on_reaped_;
  };

  // The hosts must outlive this object; endpoints still open die with it.
  ShortConnections(net::Network& network, net::Host& server,
                   std::vector<net::Host*> clients, tcp::Protocol protocol,
                   core::ProtocolOptions opts, tcp::ListenQueueConfig backlog,
                   tcp::LifecycleConfig lifecycle);
  ShortConnections(const ShortConnections&) = delete;
  ShortConnections& operator=(const ShortConnections&) = delete;

  // Connects clients[client] to the server, writes `bytes` and closes (the
  // FIN follows the last acked byte). `on_reaped` runs in the reap event,
  // after the final stats are kept and before the endpoints are destroyed.
  const Connection& open(std::size_t client, std::uint64_t bytes, ReapHook on_reaped);

  tcp::ListenQueue& backlog() { return backlog_; }
  const std::deque<Connection>& connections() const { return conns_; }  // open order

 private:
  void maybe_reap(Connection& c);

  net::Network& network_;
  net::Host& server_;
  std::vector<net::Host*> clients_;
  tcp::Protocol protocol_;
  core::ProtocolOptions opts_;
  tcp::ReceiverConfig receiver_cfg_;
  tcp::ListenQueue backlog_;
  std::deque<tcp::RstResponder> responders_;
  std::deque<Connection> conns_;
};

}  // namespace trim::http
