// Every (switch, destination) port set Network::build_routes produces must
// equal the per-destination BFS reference (reference_routes.hpp), port
// order included: ECMP hashes over that order, so a reordered set would
// move flows between paths and change every figure.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "net/reference_routes.hpp"
#include "topo/fat_tree.hpp"
#include "topo/many_to_one.hpp"
#include "topo/multi_hop.hpp"
#include "topo/two_tier.hpp"

namespace trim::net {
namespace {

LinkSpec gig_link() { return LinkSpec{kGbps, sim::SimTime::micros(10), QueueConfig{}}; }

struct Comparison {
  std::size_t mismatches = 0;
  std::string first_mismatch;
  std::size_t routed = 0;  // (switch, destination) pairs with a route
  std::size_t switches = 0;
};

// Compares every switch's table with the reference for every destination,
// and checks that ids past the last node stay unroutable in both.
Comparison compare_with_reference(const Network& net) {
  const ReferenceRoutes reference{net};
  const auto n = static_cast<NodeId>(net.node_count());
  Comparison c;
  auto mismatch = [&c](const std::string& what) {
    if (c.mismatches++ == 0) c.first_mismatch = what;
  };
  for (NodeId u = 0; u < n; ++u) {
    const auto* sw = dynamic_cast<const Switch*>(&net.node(u));
    if (sw == nullptr) continue;
    ++c.switches;
    for (NodeId dst = 0; dst < n; ++dst) {
      const auto got = sw->routes().ports_for(dst);
      const auto want = reference.ports_for(u, dst);
      if (!std::equal(got.begin(), got.end(), want.begin(), want.end())) {
        std::ostringstream what;
        what << sw->name() << " -> " << net.node(dst).name() << ": got [";
        for (const auto p : got) what << ' ' << p;
        what << " ], reference [";
        for (const auto p : want) what << ' ' << p;
        what << " ]";
        mismatch(what.str());
      }
      if (!want.empty()) ++c.routed;
    }
    for (const NodeId dst : {n, n + 1, kInvalidNode}) {
      if (sw->routes().has_route(dst) || !reference.ports_for(u, dst).empty()) {
        mismatch(sw->name() + " routes out-of-range id " + std::to_string(dst));
      }
    }
  }
  return c;
}

// A connected topology: every switch must route to every other node.
void expect_matches_and_fully_routed(const Network& net) {
  const Comparison c = compare_with_reference(net);
  EXPECT_EQ(c.mismatches, 0u) << "first: " << c.first_mismatch;
  EXPECT_GT(c.switches, 0u);
  EXPECT_EQ(c.routed, c.switches * (net.node_count() - 1));
}

TEST(RouteOracle, TwoTierFig08Scale) {
  sim::Simulator sim;
  Network net{&sim};
  topo::TwoTierConfig cfg;
  cfg.num_switches = 5;
  cfg.servers_per_switch = 42;
  topo::build_two_tier(net, cfg);
  expect_matches_and_fully_routed(net);
}

TEST(RouteOracle, TwoTierFourTimesFig08Scale) {
  sim::Simulator sim;
  Network net{&sim};
  topo::TwoTierConfig cfg;
  cfg.num_switches = 100;
  cfg.servers_per_switch = 42;
  topo::build_two_tier(net, cfg);
  ASSERT_EQ(net.node_count(), 4302u);
  expect_matches_and_fully_routed(net);
}

TEST(RouteOracle, FatTreeK4) {
  sim::Simulator sim;
  Network net{&sim};
  topo::FatTreeConfig cfg;
  cfg.k = 4;
  topo::build_fat_tree(net, cfg);
  expect_matches_and_fully_routed(net);
}

TEST(RouteOracle, FatTreeK8) {
  sim::Simulator sim;
  Network net{&sim};
  topo::FatTreeConfig cfg;
  cfg.k = 8;
  topo::build_fat_tree(net, cfg);
  expect_matches_and_fully_routed(net);
}

TEST(RouteOracle, MultiHop) {
  sim::Simulator sim;
  Network net{&sim};
  topo::build_multi_hop(net, topo::MultiHopConfig{});
  expect_matches_and_fully_routed(net);
}

TEST(RouteOracle, ManyToOne) {
  sim::Simulator sim;
  Network net{&sim};
  topo::build_many_to_one(net, topo::ManyToOneConfig{});
  expect_matches_and_fully_routed(net);
}

TEST(RouteOracle, LinearChain) {
  // Network.MultiHopLinearChain's topology.
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
  expect_matches_and_fully_routed(net);
}

TEST(RouteOracle, Diamond) {
  // Network.EcmpSpreadsFlowsAcrossEqualPaths's topology: two equal paths.
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
  expect_matches_and_fully_routed(net);
  EXPECT_EQ(in->routes().ports_for(b->id()).size(), 2u);
}

TEST(RouteOracle, ParallelLinksIsolatedSwitchAndHostPairs) {
  sim::Simulator sim;
  Network net{&sim};
  auto* s1 = net.add_switch("s1");
  auto* s2 = net.add_switch("s2");
  auto* a = net.add_host("a");
  auto* b = net.add_host("b");
  auto* leaf_sw = net.add_switch("leaf_sw");
  auto* twin_sw = net.add_switch("twin_sw");
  net.add_switch("isolated");
  auto* c = net.add_host("c");
  auto* d = net.add_host("d");
  auto* lone_sw = net.add_switch("lone_sw");
  auto* e = net.add_host("e");
  // Host a on s1 by two parallel links, interleaved with other connects so
  // its two ports on s1 are not adjacent.
  net.connect(*a, *s1, gig_link());
  net.connect(*s1, *s2, gig_link());
  net.connect(*a, *s1, gig_link());
  net.connect(*s2, *s1, gig_link());  // parallel trunk, opposite orientation
  net.connect(*b, *s2, gig_link());
  net.connect(*s2, *leaf_sw, gig_link());  // a switch that is a leaf
  net.connect(*twin_sw, *s1, gig_link());  // a leaf switch by two links
  net.connect(*s1, *twin_sw, gig_link());
  net.connect(*c, *d, gig_link());  // two hosts linked directly: both leaves
  net.connect(*e, *lone_sw, gig_link());  // a two-node component
  net.build_routes();

  const Comparison cmp = compare_with_reference(net);
  EXPECT_EQ(cmp.mismatches, 0u) << "first: " << cmp.first_mismatch;
  EXPECT_EQ(s1->routes().ports_for(a->id()).size(), 2u);
  EXPECT_EQ(s2->routes().ports_for(a->id()).size(), 2u);  // over both trunks
  EXPECT_EQ(s1->routes().ports_for(twin_sw->id()).size(), 2u);
  EXPECT_TRUE(lone_sw->routes().has_route(e->id()));
  EXPECT_FALSE(s1->routes().has_route(c->id()));
  EXPECT_FALSE(s1->routes().has_route(e->id()));
}

TEST(RouteOracle, RandomSwitchGraphsWithLeafHosts) {
  // Irregular fabrics: random switch graphs with parallel trunks, and hosts
  // attached (some by two links) in shuffled order, so no node's ports
  // follow id order.
  auto named = [](const char* prefix, int i) {
    std::string name = prefix;
    name += std::to_string(i);
    return name;
  };
  for (const unsigned seed : {1u, 2u, 3u, 4u}) {
    std::mt19937 rng{seed};
    sim::Simulator sim;
    Network net{&sim};
    std::vector<Node*> switches;
    std::vector<Node*> hosts;
    for (int i = 0; i < 24; ++i) switches.push_back(net.add_switch(named("s", i)));
    for (int i = 0; i < 60; ++i) hosts.push_back(net.add_host(named("h", i)));
    std::uniform_int_distribution<std::size_t> pick_sw{0, switches.size() - 1};
    std::vector<std::pair<Node*, Node*>> links;
    for (std::size_t i = 1; i < switches.size(); ++i) {  // spanning tree: connected
      links.emplace_back(switches[i], switches[pick_sw(rng) % i]);
    }
    for (int i = 0; i < 30; ++i) {
      const std::size_t x = pick_sw(rng), y = pick_sw(rng);
      if (x != y) links.emplace_back(switches[x], switches[y]);
    }
    for (Node* h : hosts) {
      Node* sw = switches[pick_sw(rng)];
      links.emplace_back(h, sw);
      if (rng() % 5 == 0) links.emplace_back(sw, h);
    }
    std::shuffle(links.begin(), links.end(), rng);
    for (const auto& [x, y] : links) net.connect(*x, *y, gig_link());
    net.build_routes();
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_matches_and_fully_routed(net);
  }
}

}  // namespace
}  // namespace trim::net
