// Partitioner tests: every topology builder, at 1, 2, and 8 shards, must
// produce a full, valid, deterministic partition whose cut links all carry
// a positive propagation delay (the engine's lookahead requirement), and
// whose affinity rules keep servers on the same shard as their access
// switch.
#include "topo/partition.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "sim/config_error.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/simulator.hpp"
#include "topo/fat_tree.hpp"
#include "topo/many_to_one.hpp"
#include "topo/multi_hop.hpp"
#include "topo/two_tier.hpp"

namespace trim::topo {
namespace {

struct BuilderCase {
  std::string name;
  std::function<void(net::Network&)> build;
};

std::vector<BuilderCase> builders() {
  return {
      {"many_to_one",
       [](net::Network& n) {
         ManyToOneConfig cfg;
         cfg.num_servers = 12;
         build_many_to_one(n, cfg);
       }},
      {"two_tier",
       [](net::Network& n) {
         TwoTierConfig cfg;
         cfg.num_switches = 5;
         cfg.servers_per_switch = 6;
         build_two_tier(n, cfg);
       }},
      {"multi_hop",
       [](net::Network& n) {
         MultiHopConfig cfg;
         cfg.group_size = 6;
         build_multi_hop(n, cfg);
       }},
      {"fat_tree",
       [](net::Network& n) {
         FatTreeConfig cfg;
         cfg.k = 4;
         build_fat_tree(n, cfg);
       }},
  };
}

class PartitionBuilders : public ::testing::TestWithParam<int> {};

TEST_P(PartitionBuilders, ValidCompleteAndDeterministic) {
  const int shards = GetParam();
  for (const auto& b : builders()) {
    sim::Simulator sim;
    net::Network network{&sim};
    b.build(network);

    const Partition part = partition_network(network, shards);
    SCOPED_TRACE(b.name + " @ " + std::to_string(shards) + " shards");

    // Complete and in range.
    ASSERT_EQ(part.shard_of_node.size(), network.node_count());
    for (const int s : part.shard_of_node) {
      EXPECT_GE(s, 0);
      EXPECT_LT(s, shards);
    }
    EXPECT_EQ(part.shards, shards);
    EXPECT_GT(part.groups, 0);
    EXPECT_GE(part.imbalance(), 1.0);

    // The census counts exactly the links that cross shards, and each of
    // them can carry conservative lookahead (positive delay).
    int crossing = 0;
    const auto& links = network.links();
    for (std::size_t i = 0; i < links.size(); ++i) {
      if (part.shard_of_node[network.link_source(i)] ==
          part.shard_of_node[links[i]->peer()->id()]) {
        continue;
      }
      ++crossing;
      EXPECT_GT(links[i]->prop_delay(), sim::SimTime::zero());
    }
    EXPECT_EQ(crossing, part.cut_links);
    if (shards == 1) {
      EXPECT_EQ(part.cut_links, 0);
    }

    // Deterministic: a pure function of the topology.
    const Partition again = partition_network(network, shards);
    EXPECT_EQ(part.shard_of_node, again.shard_of_node);
    EXPECT_EQ(part.cut_links, again.cut_links);
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, PartitionBuilders, ::testing::Values(1, 2, 8));

TEST(Partition, TwoTierKeepsRacksTogether) {
  sim::Simulator sim;
  net::Network network{&sim};
  TwoTierConfig cfg;
  cfg.num_switches = 5;
  cfg.servers_per_switch = 6;
  const auto topo = build_two_tier(network, cfg);

  const Partition part = partition_network(network, 4);
  for (int s = 0; s < cfg.num_switches; ++s) {
    const int tor_shard = part.shard_of_node[topo.tors[s]->id()];
    for (const auto* host : topo.servers[s]) {
      EXPECT_EQ(part.shard_of_node[host->id()], tor_shard)
          << "server " << host->name() << " split from its ToR";
    }
  }
}

TEST(Partition, FatTreeKeepsPodsTogether) {
  sim::Simulator sim;
  net::Network network{&sim};
  FatTreeConfig cfg;
  cfg.k = 4;
  const auto topo = build_fat_tree(network, cfg);

  const Partition part = partition_network(network, 4);
  // Pod membership: k/2 edge switches, k/2 agg switches, (k/2)^2 hosts
  // per pod, appended pod-by-pod in build order.
  const int half = cfg.k / 2;
  for (int pod = 0; pod < cfg.k; ++pod) {
    const int pod_shard =
        part.shard_of_node[topo.edge_switches[pod * half]->id()];
    for (int e = 0; e < half; ++e) {
      EXPECT_EQ(part.shard_of_node[topo.edge_switches[pod * half + e]->id()], pod_shard);
      EXPECT_EQ(part.shard_of_node[topo.agg_switches[pod * half + e]->id()], pod_shard);
    }
    for (int h = 0; h < half * half; ++h) {
      EXPECT_EQ(part.shard_of_node[topo.hosts[pod * half * half + h]->id()], pod_shard);
    }
  }
  // The core layer is one group on one shard.
  const int core_shard = part.shard_of_node[topo.core_switches[0]->id()];
  for (const auto* core : topo.core_switches) {
    EXPECT_EQ(part.shard_of_node[core->id()], core_shard);
  }
}

TEST(Partition, GenericRuleCoLocatesHostsWithAccessSwitch) {
  // many_to_one carries no annotations, so the generic rule applies: the
  // hub switch seeds a group and every single-homed host joins it — one
  // group total, nothing cut at any width.
  sim::Simulator sim;
  net::Network network{&sim};
  ManyToOneConfig cfg;
  cfg.num_servers = 12;
  const auto topo = build_many_to_one(network, cfg);

  const Partition part = partition_network(network, 8);
  const int hub_shard = part.shard_of_node[topo.sw->id()];
  for (const auto* server : topo.servers) {
    EXPECT_EQ(part.shard_of_node[server->id()], hub_shard);
  }
  EXPECT_EQ(part.shard_of_node[topo.front_end->id()], hub_shard);
  EXPECT_EQ(part.cut_links, 0);
}

TEST(Partition, ShardNetworkRegistersCutLinksWithEngine) {
  sim::ShardedEngine engine{4};
  net::Network network{&engine.control()};
  TwoTierConfig cfg;
  cfg.num_switches = 5;
  cfg.servers_per_switch = 6;
  build_two_tier(network, cfg);

  const Partition part = shard_network(network, engine);
  ASSERT_GT(part.cut_links, 0);
  EXPECT_TRUE(engine.sharded());
  EXPECT_EQ(engine.cut_links(), part.cut_links);
  // Every node now lives on the simulator of its assigned shard.
  for (net::NodeId id = 0; id < network.node_count(); ++id) {
    EXPECT_EQ(network.node(id).simulator(),
              &engine.shard(part.shard_of_node[id]));
    EXPECT_EQ(network.node_shard(id), part.shard_of_node[id]);
  }
}

TEST(Partition, SingleShardEngineLeavesNetworkUntouched) {
  sim::ShardedEngine engine{1};
  net::Network network{&engine.control()};
  TwoTierConfig cfg;
  cfg.num_switches = 3;
  cfg.servers_per_switch = 4;
  build_two_tier(network, cfg);

  const Partition part = shard_network(network, engine);
  EXPECT_EQ(part.cut_links, 0);
  EXPECT_FALSE(engine.sharded());
  for (net::NodeId id = 0; id < network.node_count(); ++id) {
    EXPECT_EQ(network.node(id).simulator(), &engine.control());
  }
}

// ---- per-pair lookahead matrix ----
//
// Each test applies the partition to an engine of the same width; the
// engine's path-closed matrix is then the lookahead the partition implies.

// two_tier link delays: fabric<->frontend 10 us, tor<->fabric 20 us,
// host<->tor 20 us (always intra-rack). With fabric, frontend, and racks
// on distinct shards, every shard-pair lookahead is a sum of those.
TEST(Partition, TwoTierLookaheadMatrixAtFourShards) {
  sim::ShardedEngine engine{4};
  net::Network network{&engine.control()};
  TwoTierConfig cfg;
  cfg.num_switches = 5;
  cfg.servers_per_switch = 6;
  const auto topo = build_two_tier(network, cfg);

  const Partition part = shard_network(network, engine);
  const int f = part.shard_of_node[topo.fabric->id()];
  const int e = part.shard_of_node[topo.front_end->id()];
  const int r0 = part.shard_of_node[topo.tors[0]->id()];
  const int r1 = part.shard_of_node[topo.tors[1]->id()];
  // LPT puts the heavy fabric and frontend groups on their own shards and
  // packs the five racks onto the remaining two.
  ASSERT_NE(f, e);
  ASSERT_NE(r0, f);
  ASSERT_NE(r0, e);
  ASSERT_NE(r1, r0);
  ASSERT_NE(r1, f);
  ASSERT_NE(r1, e);

  using sim::SimTime;
  EXPECT_EQ(engine.lookahead_between(f, e), SimTime::micros(10));
  EXPECT_EQ(engine.lookahead_between(e, f), SimTime::micros(10));
  EXPECT_EQ(engine.lookahead_between(r0, f), SimTime::micros(20));
  EXPECT_EQ(engine.lookahead_between(f, r0), SimTime::micros(20));
  // Multi-hop closures: rack -> fabric -> frontend, rack -> fabric -> rack.
  EXPECT_EQ(engine.lookahead_between(r0, e), SimTime::micros(30));
  EXPECT_EQ(engine.lookahead_between(e, r0), SimTime::micros(30));
  EXPECT_EQ(engine.lookahead_between(r0, r1), SimTime::micros(40));
  EXPECT_EQ(engine.lookahead_between(r1, r0), SimTime::micros(40));
  // Diagonals are min cycles: fabric -> frontend -> fabric, and
  // rack -> fabric -> rack.
  EXPECT_EQ(engine.lookahead_between(f, f), SimTime::micros(20));
  EXPECT_EQ(engine.lookahead_between(e, e), SimTime::micros(20));
  EXPECT_EQ(engine.lookahead_between(r0, r0), SimTime::micros(40));
}

TEST(Partition, TwoTierLookaheadMatrixAtTwoAndEightShards) {
  TwoTierConfig cfg;
  cfg.num_switches = 5;
  cfg.servers_per_switch = 6;

  // 2 shards: fabric and frontend land apart (fabric is the heaviest
  // group); their 10 us link is the shortest cut in both directions.
  sim::ShardedEngine two{2};
  net::Network network2{&two.control()};
  const auto topo2 = build_two_tier(network2, cfg);
  const Partition part2 = shard_network(network2, two);
  const int f2 = part2.shard_of_node[topo2.fabric->id()];
  const int e2 = part2.shard_of_node[topo2.front_end->id()];
  ASSERT_NE(f2, e2);
  EXPECT_EQ(two.lookahead_between(f2, e2), sim::SimTime::micros(10));
  EXPECT_EQ(two.lookahead_between(e2, f2), sim::SimTime::micros(10));

  // 8 shards: 7 groups leave one shard empty — nothing reaches it and it
  // reaches nothing, so its whole row and column stay at max().
  sim::ShardedEngine eight{8};
  net::Network network8{&eight.control()};
  const auto topo8 = build_two_tier(network8, cfg);
  const Partition part8 = shard_network(network8, eight);
  std::vector<bool> used(8, false);
  for (const int s : part8.shard_of_node) used[static_cast<std::size_t>(s)] = true;
  int empty = -1;
  for (int s = 0; s < 8; ++s) {
    if (!used[static_cast<std::size_t>(s)]) empty = s;
  }
  ASSERT_GE(empty, 0);
  for (int s = 0; s < 8; ++s) {
    EXPECT_EQ(eight.lookahead_between(empty, s), sim::SimTime::max());
    EXPECT_EQ(eight.lookahead_between(s, empty), sim::SimTime::max());
  }
  const int f8 = part8.shard_of_node[topo8.fabric->id()];
  const int e8 = part8.shard_of_node[topo8.front_end->id()];
  const int r8 = part8.shard_of_node[topo8.tors[0]->id()];
  ASSERT_NE(f8, e8);
  ASSERT_NE(r8, f8);
  EXPECT_EQ(eight.lookahead_between(f8, e8), sim::SimTime::micros(10));
  EXPECT_EQ(eight.lookahead_between(r8, e8), sim::SimTime::micros(30));
}

// fat_tree uses one uniform link delay (10 us): pod <-> core cuts are one
// hop, pod <-> pod always closes through the core layer at two hops.
TEST(Partition, FatTreeLookaheadMatrixAtTwoFourEightShards) {
  using sim::SimTime;
  for (const int shards : {2, 4, 8}) {
    sim::ShardedEngine engine{shards};
    net::Network network{&engine.control()};
    FatTreeConfig cfg;
    cfg.k = 4;
    const auto topo = build_fat_tree(network, cfg);
    const Partition part = shard_network(network, engine);
    SCOPED_TRACE("fat_tree @ " + std::to_string(shards) + " shards");

    const int half = cfg.k / 2;
    const int core = part.shard_of_node[topo.core_switches[0]->id()];
    std::vector<int> pod_shard;
    for (int pod = 0; pod < cfg.k; ++pod) {
      pod_shard.push_back(
          part.shard_of_node[topo.edge_switches[pod * half]->id()]);
    }
    for (int pod = 0; pod < cfg.k; ++pod) {
      if (pod_shard[static_cast<std::size_t>(pod)] == core) continue;
      EXPECT_EQ(engine.lookahead_between(pod_shard[static_cast<std::size_t>(pod)], core),
                SimTime::micros(10));
      EXPECT_EQ(engine.lookahead_between(core, pod_shard[static_cast<std::size_t>(pod)]),
                SimTime::micros(10));
    }
    for (int a = 0; a < cfg.k; ++a) {
      for (int b = 0; b < cfg.k; ++b) {
        const int sa = pod_shard[static_cast<std::size_t>(a)];
        const int sb = pod_shard[static_cast<std::size_t>(b)];
        if (sa == sb || sa == core || sb == core) continue;
        // Pods never touch directly; the closure routes through the core.
        EXPECT_EQ(engine.lookahead_between(sa, sb), SimTime::micros(20));
      }
    }
  }
}

TEST(Partition, AsymmetricCutDelaysStayDirectional) {
  // A hand-built two-node topology with different per-direction delays:
  // the matrix must keep 5 us one way and 9 us the other, unlike the
  // direction-blind global lookahead (which collapses to 5 us).
  sim::ShardedEngine engine{2};
  net::Network network{&engine.control()};
  auto* a = network.add_host("a");
  a->set_part_group(0);
  auto* b = network.add_host("b");
  b->set_part_group(1);
  const net::LinkSpec a_to_b{net::kGbps, sim::SimTime::micros(5), {}};
  const net::LinkSpec b_to_a{net::kGbps, sim::SimTime::micros(9), {}};
  network.connect(*a, *b, a_to_b, b_to_a);
  network.build_routes();

  const Partition part = shard_network(network, engine);
  const int sa = part.shard_of_node[a->id()];
  const int sb = part.shard_of_node[b->id()];
  ASSERT_NE(sa, sb);
  EXPECT_EQ(engine.lookahead(), sim::SimTime::micros(5));
  EXPECT_EQ(engine.lookahead_between(sa, sb), sim::SimTime::micros(5));
  EXPECT_EQ(engine.lookahead_between(sb, sa), sim::SimTime::micros(9));
  // Diagonal cycle: out and back.
  EXPECT_EQ(engine.lookahead_between(sa, sa), sim::SimTime::micros(14));
  EXPECT_EQ(engine.lookahead_between(sb, sb), sim::SimTime::micros(14));
  EXPECT_THROW(engine.lookahead_between(2, 0), ConfigError);
}

TEST(Partition, ZeroDelayCutLinkRejectedByEngine) {
  // partition_network reports the zero-delay cut; wiring it into the
  // engine is what must fail (conservative sync cannot make progress).
  sim::ShardedEngine engine{2};
  net::Network network{&engine.control()};
  auto* a = network.add_host("a");
  a->set_part_group(0);
  auto* b = network.add_host("b");
  b->set_part_group(1);
  const net::LinkSpec a_to_b{net::kGbps, sim::SimTime::zero(), {}};
  const net::LinkSpec b_to_a{net::kGbps, sim::SimTime::micros(9), {}};
  network.connect(*a, *b, a_to_b, b_to_a);
  network.build_routes();

  const Partition part = partition_network(network, 2);
  ASSERT_EQ(part.cut_links, 2);
  EXPECT_THROW(shard_network(network, engine), ConfigError);
}

TEST(Partition, RejectsBadShardCount) {
  sim::Simulator sim;
  net::Network network{&sim};
  ManyToOneConfig cfg;
  build_many_to_one(network, cfg);
  EXPECT_THROW(partition_network(network, 0), ConfigError);
}

}  // namespace
}  // namespace trim::topo
