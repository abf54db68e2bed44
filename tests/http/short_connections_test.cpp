// http::ShortConnections: a connection is reaped once both endpoints have
// left it, its hook runs once before the endpoints are destroyed, and its
// record keeps the final stats.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "http/short_connections.hpp"
#include "net/network.hpp"

namespace trim::http {
namespace {

// A client and a server on one switch.
struct Pair {
  Pair() {
    auto* sw = net.add_switch("sw");
    const net::LinkSpec spec{net::kGbps, sim::SimTime::micros(10), net::QueueConfig{}};
    net.connect(*client, *sw, spec);
    net.connect(*server, *sw, spec);
    net.build_routes();
  }

  ShortConnections connections(tcp::ListenQueueConfig backlog = {}) {
    return {net, *server, {client}, tcp::Protocol::kReno, core::ProtocolOptions{},
            backlog, tcp::LifecycleConfig{}};
  }

  sim::Simulator sim;
  net::Network net{&sim};
  net::Host* client = net.add_host("client");
  net::Host* server = net.add_host("server");
};

int agents(const net::Host& h) {
  int n = 0;
  h.for_each_agent([&](const net::Agent&) { ++n; });
  return n;
}

TEST(ShortConnections, GracefulConnectionIsReapedAfterBothSidesClose) {
  Pair pair;
  ShortConnections conns = pair.connections();
  int hook_runs = 0;
  const auto& c = conns.open(0, 3 * 1460, [&](const ShortConnections::Connection& r) {
    ++hook_runs;
    EXPECT_TRUE(r.reaped);
    EXPECT_TRUE(r.flow.sender != nullptr && r.flow.receiver != nullptr)
        << "the hook runs before the endpoints are destroyed";
  });
  EXPECT_EQ(agents(*pair.client), 1);
  EXPECT_EQ(agents(*pair.server), 1);
  pair.sim.run();

  EXPECT_EQ(hook_runs, 1);
  EXPECT_TRUE(c.reaped);
  EXPECT_TRUE(c.flow.sender == nullptr);
  EXPECT_TRUE(c.flow.receiver == nullptr);
  EXPECT_EQ(agents(*pair.client), 0);
  EXPECT_EQ(agents(*pair.server), 0);
  EXPECT_TRUE(c.sender_closed());
  const auto s = c.stats();
  EXPECT_TRUE(s.sender.ever_established);
  EXPECT_TRUE(s.sender.graceful_close);
  EXPECT_TRUE(s.receiver.graceful_close);
  EXPECT_EQ(s.acked_bytes, 3 * 1460u);
  EXPECT_EQ(conns.connections().size(), 1u);
}

TEST(ShortConnections, RefusedConnectionIsReapedWhileItsReceiverListens) {
  Pair pair;
  tcp::ListenQueueConfig backlog;
  backlog.depth = 1;
  backlog.overflow = tcp::ListenQueueConfig::OverflowPolicy::kRst;
  ShortConnections conns = pair.connections(backlog);
  std::vector<tcp::ConnState> receiver_at_reap;
  const auto hook = [&](const ShortConnections::Connection& c) {
    receiver_at_reap.push_back(c.flow.receiver->conn_state());
  };
  // The second SYN lands while the first holds the only backlog slot.
  conns.open(0, 1460, hook);
  conns.open(0, 1460, hook);
  pair.sim.run();

  ASSERT_EQ(conns.connections().size(), 2u);
  EXPECT_EQ(conns.backlog().stats().overflow_rsts, 1u);
  const auto& served = conns.connections()[0];
  const auto& refused = conns.connections()[1];
  EXPECT_TRUE(served.reaped);
  EXPECT_TRUE(served.stats().sender.graceful_close);
  EXPECT_TRUE(refused.reaped);
  EXPECT_TRUE(refused.sender_closed());
  EXPECT_FALSE(refused.stats().sender.ever_established);
  EXPECT_FALSE(refused.stats().sender.graceful_close);
  // The refused connection is reaped first, its receiver never having left
  // LISTEN; the served one after its receiver closed.
  ASSERT_EQ(receiver_at_reap.size(), 2u);
  EXPECT_EQ(receiver_at_reap[0], tcp::ConnState::kListen);
  EXPECT_EQ(receiver_at_reap[1], tcp::ConnState::kClosed);
}

}  // namespace
}  // namespace trim::http
