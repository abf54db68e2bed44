#include <gtest/gtest.h>

#include "core/sender_factory.hpp"
#include "exp/experiment.hpp"
#include "topo/fat_tree.hpp"
#include "topo/many_to_one.hpp"
#include "topo/multi_hop.hpp"
#include "topo/two_tier.hpp"

namespace trim::topo {
namespace {

// Transfer helper: returns true if `bytes` arrive from src to dst.
bool can_transfer(exp::World& world, net::Host& src, net::Host& dst,
                  std::uint64_t bytes = 20'000) {
  auto flow = core::make_protocol_flow(world.network, src, dst,
                                       tcp::Protocol::kReno, core::ProtocolOptions{});
  flow.sender->write(bytes);
  world.simulator.run_until(world.simulator.now() + sim::SimTime::seconds(2));
  return flow.sender->idle() && flow.receiver->delivered_bytes() == bytes;
}

// A k-ary fat tree with every other field at its default.
FatTreeConfig fat_tree_k(int k) {
  FatTreeConfig cfg;
  cfg.k = k;
  return cfg;
}

TEST(ManyToOne, StructureAndReachability) {
  exp::World world;
  ManyToOneConfig cfg;
  cfg.num_servers = 5;
  const auto topo = build_many_to_one(world.network, cfg);
  ASSERT_EQ(topo.servers.size(), 5u);
  ASSERT_NE(topo.front_end, nullptr);
  ASSERT_NE(topo.bottleneck, nullptr);
  EXPECT_EQ(world.network.node_count(), 7u);  // 5 servers + switch + front-end
  EXPECT_TRUE(can_transfer(world, *topo.servers[0], *topo.front_end));
  EXPECT_TRUE(can_transfer(world, *topo.servers[4], *topo.front_end));
  // Reverse direction works too (ACK path is symmetric).
  EXPECT_TRUE(can_transfer(world, *topo.front_end, *topo.servers[2]));
}

TEST(ManyToOne, BottleneckQueueIsConfiguredBuffer) {
  exp::World world;
  ManyToOneConfig cfg;
  cfg.switch_buffer_pkts = 37;
  const auto topo = build_many_to_one(world.network, cfg);
  // Stuff the bottleneck directly and count survivors.
  for (int i = 0; i < 100; ++i) {
    net::Packet p;
    p.payload_bytes = 1460;
    p.dst = topo.front_end->id();
    topo.bottleneck->send(std::move(p));
  }
  // 37 queued + 1 in flight accepted before overflow.
  EXPECT_GE(topo.bottleneck->queue().stats().dropped, 100u - 40u);
}

TEST(ManyToOne, ServerRateOverrideApplies) {
  exp::World world;
  ManyToOneConfig cfg;
  cfg.server_link_bps = 1'100'000'000;
  const auto topo = build_many_to_one(world.network, cfg);
  EXPECT_EQ(topo.servers[0]->out_link(0).bits_per_sec(), 1'100'000'000u);
  EXPECT_EQ(topo.bottleneck->bits_per_sec(), 1'000'000'000u);
  ManyToOneConfig no_servers;
  no_servers.num_servers = 0;
  EXPECT_THROW(build_many_to_one(world.network, no_servers), std::invalid_argument);
}

TEST(TwoTier, StructureAndCrossRackReachability) {
  exp::World world;
  TwoTierConfig cfg;
  cfg.num_switches = 3;
  cfg.servers_per_switch = 4;
  const auto topo = build_two_tier(world.network, cfg);
  EXPECT_EQ(topo.total_servers(), 12);
  EXPECT_EQ(topo.tors.size(), 3u);
  // Server under ToR 2 reaches the front-end through the fabric.
  EXPECT_TRUE(can_transfer(world, *topo.servers[2][3], *topo.front_end));
  // Server-to-server across racks also routes.
  EXPECT_TRUE(can_transfer(world, *topo.servers[0][0], *topo.servers[1][1]));
}

TEST(MultiHop, GroupsAndBottlenecksWired) {
  exp::World world;
  MultiHopConfig cfg;
  cfg.group_size = 3;
  const auto topo = build_multi_hop(world.network, cfg);
  EXPECT_EQ(topo.group_a.size(), 3u);
  EXPECT_EQ(topo.bottleneck1->bits_per_sec(), 10u * net::kGbps);
  EXPECT_EQ(topo.bottleneck2->bits_per_sec(), 10u * net::kGbps);
  // A -> front-end crosses both bottlenecks.
  EXPECT_TRUE(can_transfer(world, *topo.group_a[0], *topo.front_end));
  // C -> D crosses only the first.
  EXPECT_TRUE(can_transfer(world, *topo.group_c[1], *topo.group_d[1]));
  // B -> front-end crosses only the second.
  EXPECT_TRUE(can_transfer(world, *topo.group_b[2], *topo.front_end));
}

TEST(FatTree, StructureCountsMatchKAryFormulae) {
  exp::World world;
  const auto topo = build_fat_tree(world.network, fat_tree_k(4));
  EXPECT_EQ(topo.hosts.size(), 16u);          // k^3/4
  EXPECT_EQ(topo.core_switches.size(), 4u);   // (k/2)^2
  EXPECT_EQ(topo.agg_switches.size(), 8u);    // k * k/2
  EXPECT_EQ(topo.edge_switches.size(), 8u);
  EXPECT_EQ(topo.hosts_per_pod(), 4);
}

TEST(FatTree, IntraPodAndInterPodRouting) {
  exp::World world;
  const auto topo = build_fat_tree(world.network, fat_tree_k(4));
  // Same edge switch.
  EXPECT_TRUE(can_transfer(world, *topo.hosts[0], *topo.hosts[1]));
  // Same pod, different edge switch.
  EXPECT_TRUE(can_transfer(world, *topo.hosts[0], *topo.hosts[2]));
  // Different pods (crosses the core).
  EXPECT_TRUE(can_transfer(world, *topo.hosts[0], *topo.hosts[15]));
}

TEST(FatTree, EcmpUsesMultipleCores) {
  exp::World world;
  const auto topo = build_fat_tree(world.network, fat_tree_k(4));
  // Many flows from pod 0 to pod 3: the cores should share the load.
  std::vector<tcp::Flow> flows;
  for (int i = 0; i < 32; ++i) {
    flows.push_back(core::make_protocol_flow(
        world.network, *topo.hosts[i % 4], *topo.hosts[12 + i % 4],
        tcp::Protocol::kReno, core::ProtocolOptions{}));
    flows.back().sender->write(14'600);
  }
  world.simulator.run_until(sim::SimTime::seconds(2));
  int cores_used = 0;
  for (auto* sw : topo.core_switches) {
    if (sw->forwarded_packets() > 0) ++cores_used;
  }
  EXPECT_GE(cores_used, 3);  // salted ECMP must spread across cores
  for (auto& f : flows) EXPECT_TRUE(f.sender->idle());
}

TEST(FatTree, RejectsOddK) {
  exp::World world;
  EXPECT_THROW(build_fat_tree(world.network, fat_tree_k(3)),
               std::invalid_argument);
  EXPECT_THROW(build_fat_tree(world.network, fat_tree_k(0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace trim::topo
