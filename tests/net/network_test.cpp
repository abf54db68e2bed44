#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/network.hpp"
#include "net/routing.hpp"

namespace trim::net {
namespace {

// Minimal agent that counts arrivals.
class CountingAgent : public Agent {
 public:
  void on_packet(const Packet&) override { ++count; }
  int count = 0;
};

LinkSpec gig_link() {
  return LinkSpec{kGbps, sim::SimTime::micros(10), QueueConfig{}};
}

TEST(Network, HostToHostThroughSwitch) {
  sim::Simulator sim;
  Network net{&sim};
  auto* a = net.add_host("a");
  auto* b = net.add_host("b");
  auto* sw = net.add_switch("sw");
  net.connect(*a, *sw, gig_link());
  net.connect(*b, *sw, gig_link());
  net.build_routes();

  CountingAgent agent;
  const auto flow = net.new_flow_id();
  b->register_agent(flow, &agent);

  Packet p;
  p.dst = b->id();
  p.flow = flow;
  p.payload_bytes = 100;
  a->send(std::move(p));
  sim.run();
  EXPECT_EQ(agent.count, 1);
  EXPECT_EQ(sw->forwarded_packets(), 1u);
}

TEST(Network, MultiHopLinearChain) {
  sim::Simulator sim;
  Network net{&sim};
  auto* a = net.add_host("a");
  auto* s1 = net.add_switch("s1");
  auto* s2 = net.add_switch("s2");
  auto* s3 = net.add_switch("s3");
  auto* b = net.add_host("b");
  net.connect(*a, *s1, gig_link());
  net.connect(*s1, *s2, gig_link());
  net.connect(*s2, *s3, gig_link());
  net.connect(*s3, *b, gig_link());
  net.build_routes();

  CountingAgent agent;
  const auto flow = net.new_flow_id();
  b->register_agent(flow, &agent);
  Packet p;
  p.dst = b->id();
  p.flow = flow;
  a->send(std::move(p));
  sim.run();
  EXPECT_EQ(agent.count, 1);
  // Propagation: 4 links x 10 us + 4 serializations of a 40 B ACK-sized
  // packet (0.32 us each).
  EXPECT_GT(sim.now(), sim::SimTime::micros(40));
}

TEST(Network, EcmpSpreadsFlowsAcrossEqualPaths) {
  sim::Simulator sim;
  Network net{&sim};
  auto* a = net.add_host("a");
  auto* b = net.add_host("b");
  auto* in = net.add_switch("in");
  auto* out = net.add_switch("out");
  auto* mid1 = net.add_switch("mid1");
  auto* mid2 = net.add_switch("mid2");
  net.connect(*a, *in, gig_link());
  net.connect(*in, *mid1, gig_link());
  net.connect(*in, *mid2, gig_link());
  net.connect(*mid1, *out, gig_link());
  net.connect(*mid2, *out, gig_link());
  net.connect(*out, *b, gig_link());
  net.build_routes();

  CountingAgent agent_b;
  // Many flows: both middle switches should see traffic.
  for (FlowId f = 1; f <= 64; ++f) {
    b->register_agent(f, &agent_b);
    Packet p;
    p.dst = b->id();
    p.flow = f;
    a->send(std::move(p));
  }
  sim.run();
  EXPECT_EQ(agent_b.count, 64);
  EXPECT_GT(mid1->forwarded_packets(), 10u);
  EXPECT_GT(mid2->forwarded_packets(), 10u);
  // A given flow always takes the same path (per-flow consistency).
  const auto& table = in->routes();
  EXPECT_EQ(table.select_port(b->id(), 7), table.select_port(b->id(), 7));
}

TEST(Network, UnroutablePacketIsCountedNotCrashed) {
  sim::Simulator sim;
  Network net{&sim};
  auto* a = net.add_host("a");
  auto* sw = net.add_switch("sw");
  net.connect(*a, *sw, gig_link());
  net.build_routes();
  Packet p;
  p.dst = 999;  // no such node
  a->send(std::move(p));
  sim.run();
  EXPECT_EQ(sw->unroutable_packets(), 1u);
}

TEST(Network, HostWithoutAgentCountsUnroutable) {
  sim::Simulator sim;
  Network net{&sim};
  auto* a = net.add_host("a");
  auto* b = net.add_host("b");
  auto* sw = net.add_switch("sw");
  net.connect(*a, *sw, gig_link());
  net.connect(*b, *sw, gig_link());
  net.build_routes();
  Packet p;
  p.dst = b->id();
  p.flow = 42;  // nobody registered
  a->send(std::move(p));
  sim.run();
  EXPECT_EQ(b->unroutable_packets(), 1u);
}

TEST(Network, DuplicateAgentRegistrationThrows) {
  sim::Simulator sim;
  Network net{&sim};
  auto* a = net.add_host("a");
  CountingAgent x, y;
  a->register_agent(1, &x);
  EXPECT_THROW(a->register_agent(1, &y), std::logic_error);
  a->unregister_agent(1);
  a->register_agent(1, &y);  // fine after unregister
}

TEST(Host, DispatchTableKeepsOnlyTheLiveSpan) {
  sim::Simulator sim;
  Network net{&sim};
  auto* h = net.add_host("h");
  // 10 000 sequential flows, at most 8 live: a churning host.
  std::vector<CountingAgent> agents(8);
  const FlowId kFlows = 10000;
  for (FlowId f = 0; f < kFlows; ++f) {
    if (f >= 8) h->unregister_agent(f - 8);
    h->register_agent(f, &agents[f % 8]);
    ASSERT_LE(h->agent_slots(), 32u) << "flow " << f;
  }
  // The trims keep dispatch and flow-id order.
  std::vector<const Agent*> live;
  h->for_each_agent([&](const Agent& a) { live.push_back(&a); });
  ASSERT_EQ(live.size(), 8u);
  for (FlowId i = 0; i < 8; ++i) EXPECT_EQ(live[i], &agents[(kFlows - 8 + i) % 8]);
  Packet p;
  p.flow = kFlows - 1;
  h->receive(p);
  EXPECT_EQ(agents[(kFlows - 1) % 8].count, 1);
  p.flow = 0;  // long gone
  h->receive(p);
  EXPECT_EQ(h->unroutable_packets(), 1u);
}

TEST(Network, FlowIdsAreUnique) {
  sim::Simulator sim;
  Network net{&sim};
  const auto a = net.new_flow_id();
  const auto b = net.new_flow_id();
  EXPECT_NE(a, b);
}

TEST(Network, PacketUidsAreUniquePerHost) {
  sim::Simulator sim;
  Network net{&sim};
  auto* a = net.add_host("a");
  auto* b = net.add_host("b");
  net.connect(*a, *b, gig_link());
  net.build_routes();
  CountingAgent agent;
  b->register_agent(1, &agent);
  Packet p1, p2;
  p1.dst = p2.dst = b->id();
  p1.flow = p2.flow = 1;
  a->send(std::move(p1));
  a->send(std::move(p2));
  sim.run();
  EXPECT_EQ(agent.count, 2);
}

TEST(Mix64, IsDeterministicAndSpreads) {
  EXPECT_EQ(mix64(1), mix64(1));
  EXPECT_NE(mix64(1), mix64(2));
  // Consecutive inputs should not map to consecutive outputs.
  EXPECT_GT(std::max(mix64(1), mix64(2)) - std::min(mix64(1), mix64(2)), 1000ull);
}

TEST(RoutingTable, ThrowsWithoutRoute) {
  sim::Simulator sim;
  Network net{&sim};
  auto* a = net.add_host("a");
  auto* sw = net.add_switch("sw");
  auto* lone = net.add_host("lone");  // never connected
  net.connect(*a, *sw, gig_link());
  net.build_routes();
  const RoutingTable& table = sw->routes();
  for (const NodeId dst : {lone->id(), sw->id(), NodeId{999}, kInvalidNode}) {
    EXPECT_FALSE(table.has_route(dst)) << dst;
    EXPECT_TRUE(table.ports_for(dst).empty()) << dst;
    EXPECT_THROW(table.select_port(dst, 1234), std::out_of_range) << dst;
  }
  EXPECT_TRUE(table.has_route(a->id()));
  EXPECT_EQ(table.select_port(a->id(), 1234), 0u);
}

TEST(RoutingTable, RejectsMalformedOffsets) {
  EXPECT_THROW((RoutingTable{{0, 2}, {0}}), std::invalid_argument);     // end != ports
  EXPECT_THROW((RoutingTable{{0, 2, 1}, {0}}), std::invalid_argument);  // decreasing
  EXPECT_THROW((RoutingTable{{}, {0}}), std::invalid_argument);
  const RoutingTable table{{0, 0, 2}, {3, 5}};
  EXPECT_FALSE(table.has_route(0));
  ASSERT_EQ(table.ports_for(1).size(), 2u);
  EXPECT_EQ(table.ports_for(1)[1], 5u);
  EXPECT_FALSE(table.has_route(2));
}

// Every switch's port set toward every node, for comparing builds.
std::vector<std::vector<std::uint32_t>> route_snapshot(const Network& net) {
  std::vector<std::vector<std::uint32_t>> sets;
  for (NodeId u = 0; u < net.node_count(); ++u) {
    const auto* sw = dynamic_cast<const Switch*>(&net.node(u));
    if (sw == nullptr) continue;
    for (NodeId dst = 0; dst < net.node_count(); ++dst) {
      const auto ports = sw->routes().ports_for(dst);
      sets.emplace_back(ports.begin(), ports.end());
    }
  }
  return sets;
}

TEST(Network, BuildRoutesIsIdempotentAndSeesNewLinks) {
  sim::Simulator sim;
  Network net{&sim};
  auto* a = net.add_host("a");
  auto* b = net.add_host("b");
  auto* in = net.add_switch("in");
  auto* out = net.add_switch("out");
  auto* mid1 = net.add_switch("mid1");
  auto* mid2 = net.add_switch("mid2");
  net.connect(*a, *in, gig_link());
  net.connect(*in, *mid1, gig_link());
  net.connect(*in, *mid2, gig_link());
  net.connect(*mid1, *out, gig_link());
  net.connect(*mid2, *out, gig_link());
  net.connect(*out, *b, gig_link());
  net.build_routes();
  const auto first = route_snapshot(net);
  net.build_routes();
  EXPECT_EQ(route_snapshot(net), first);
  EXPECT_EQ(in->routes().ports_for(b->id()).size(), 2u);

  // Grow the topology: a shortcut in -> out replaces both two-hop paths,
  // and a new switch carries a new host.
  net.connect(*in, *out, gig_link());
  const auto shortcut = static_cast<std::uint32_t>(in->port_count() - 1);
  auto* edge = net.add_switch("edge");
  auto* c = net.add_host("c");
  net.connect(*out, *edge, gig_link());
  net.connect(*edge, *c, gig_link());
  net.build_routes();
  const auto to_b = in->routes().ports_for(b->id());
  EXPECT_EQ(std::vector<std::uint32_t>(to_b.begin(), to_b.end()),
            std::vector<std::uint32_t>{shortcut});

  CountingAgent agent;
  c->register_agent(1, &agent);
  Packet p;
  p.dst = c->id();
  p.flow = 1;
  a->send(std::move(p));
  sim.run();
  EXPECT_EQ(agent.count, 1);
  EXPECT_EQ(mid1->forwarded_packets() + mid2->forwarded_packets(), 0u);
}

TEST(Network, MultiHomedHostIsNeverATransitHop) {
  // a - s1 - h - s2 - b is the shortest path, but h is a host and never
  // forwards: a -> b must take the longer all-switch path s1 - s3 - s4 - s2.
  // Host x hangs off h alone, so no switch can reach it.
  sim::Simulator sim;
  Network net{&sim};
  auto* a = net.add_host("a");
  auto* b = net.add_host("b");
  auto* h = net.add_host("h");
  auto* x = net.add_host("x");
  auto* s1 = net.add_switch("s1");
  auto* s2 = net.add_switch("s2");
  auto* s3 = net.add_switch("s3");
  auto* s4 = net.add_switch("s4");
  net.connect(*a, *s1, gig_link());
  net.connect(*s1, *h, gig_link());
  net.connect(*h, *s2, gig_link());
  net.connect(*s1, *s3, gig_link());
  net.connect(*s3, *s4, gig_link());
  net.connect(*s4, *s2, gig_link());
  net.connect(*s2, *b, gig_link());
  net.connect(*x, *h, gig_link());
  net.build_routes();

  CountingAgent at_b, at_h;
  b->register_agent(1, &at_b);
  h->register_agent(2, &at_h);
  Packet to_b;
  to_b.dst = b->id();
  to_b.flow = 1;
  a->send(std::move(to_b));
  Packet to_h;  // h itself stays reachable, directly from s1
  to_h.dst = h->id();
  to_h.flow = 2;
  a->send(std::move(to_h));
  Packet to_x;  // unroutable at s1 rather than dropped inside h
  to_x.dst = x->id();
  to_x.flow = 3;
  a->send(std::move(to_x));
  sim.run();
  EXPECT_EQ(at_b.count, 1);
  EXPECT_EQ(at_h.count, 1);
  EXPECT_EQ(h->unroutable_packets(), 0u);
  EXPECT_EQ(s1->unroutable_packets(), 1u);
  EXPECT_EQ(s3->forwarded_packets(), 1u);
  EXPECT_EQ(s4->forwarded_packets(), 1u);
}

}  // namespace
}  // namespace trim::net
