// Serial-vs-sharded equivalence. Two layers of guarantee, tested here:
//
//  1. On drop-free workloads whose flows never contend (no same-timestamp
//     interactions between shards), a partitioned run is *exactly* equal
//     to the serial engine at every shard width: the mailbox hand-off
//     preserves every event timestamp, so disjoint flows cannot tell the
//     engines apart.
//  2. On contended, lossy workloads (the fig08 incast), a sharded run is
//     exactly reproducible for a fixed shard count — same config + same
//     width => identical results — even though same-timestamp tie order
//     across widths is an engine artifact (docs/ENGINE.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/sender_factory.hpp"
#include "exp/experiment.hpp"
#include "exp/large_scale_scenario.hpp"
#include "sim/random.hpp"
#include "tcp/flow.hpp"
#include "topo/partition.hpp"
#include "topo/two_tier.hpp"

namespace trim::exp {
namespace {

struct FlowSig {
  std::uint64_t goodput_bytes = 0;
  std::uint64_t data_packets_sent = 0;
  std::uint64_t retransmitted_packets = 0;
  std::uint64_t timeouts = 0;
  std::vector<sim::SimTime> completions;

  bool operator==(const FlowSig&) const = default;
};

// Randomized light load over the two-tier topology: every server sends a
// few random-size objects inside its own exclusive 5 ms slot, so flows
// are time-disjoint, nothing queues behind anything else, and no packet
// is ever dropped. Physics for such a workload is independent of the
// engine's event interleaving, so results must match exactly.
std::vector<FlowSig> run_light_load(int shards, std::uint64_t seed) {
  World world{shards};
  EXPECT_EQ(world.shard_count(), shards);

  topo::TwoTierConfig tcfg;
  tcfg.num_switches = 4;
  tcfg.servers_per_switch = 3;
  const auto topo = build_two_tier(world.network, tcfg);
  topo::shard_network(world.network, world.engine);

  const auto opts =
      default_options(tcp::Protocol::kReno, tcfg.edge_bps, sim::SimTime::millis(200));
  sim::Rng rng{seed};

  std::vector<tcp::Flow> flows;
  int slot = 0;
  for (int s = 0; s < tcfg.num_switches; ++s) {
    for (int h = 0; h < tcfg.servers_per_switch; ++h) {
      auto* server = topo.servers[s][h];
      flows.push_back(core::make_protocol_flow(world.network, *server,
                                               *topo.front_end,
                                               tcp::Protocol::kReno, opts));
      auto* sender = flows.back().sender.get();
      const sim::SimTime base = sim::SimTime::millis(5 * slot++);
      for (int o = 0; o < 3; ++o) {
        const sim::SimTime at =
            base + rng.uniform_time(sim::SimTime::zero(), sim::SimTime::millis(2));
        const auto bytes = static_cast<std::uint64_t>(rng.uniform_int(1000, 20000));
        server->simulator()->schedule_at(at, [sender, bytes] { sender->write(bytes); });
      }
    }
  }

  world.run_until(sim::SimTime::seconds(2));
  EXPECT_EQ(world.network.total_drops(), 0u) << "light load must stay drop-free";

  std::vector<FlowSig> sigs;
  for (const auto& flow : flows) {
    const auto& st = flow.sender->stats();
    FlowSig sig;
    sig.goodput_bytes = st.goodput_bytes;
    sig.data_packets_sent = st.data_packets_sent;
    sig.retransmitted_packets = st.retransmitted_packets;
    sig.timeouts = st.timeouts;
    for (const auto& m : st.messages()) {
      EXPECT_TRUE(m.done()) << "message never completed";
      sig.completions.push_back(m.done() ? *m.completed : sim::SimTime::max());
    }
    sigs.push_back(std::move(sig));
  }
  return sigs;
}

class ShardEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ShardEquivalence, DropFreeRunMatchesSerialExactly) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    const auto serial = run_light_load(1, seed);
    const auto sharded = run_light_load(GetParam(), seed);
    ASSERT_EQ(serial.size(), sharded.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i], sharded[i]) << "flow " << i << ", seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ShardEquivalence, ::testing::Values(2, 4, 8));

LargeScaleConfig quick_fig08(int shards) {
  LargeScaleConfig cfg;
  cfg.protocol = tcp::Protocol::kReno;
  cfg.num_switches = 3;
  cfg.servers_per_switch = 10;
  cfg.lpt_servers_per_switch = 1;
  cfg.spt_window = sim::SimTime::millis(50);
  cfg.drain = sim::SimTime::millis(200);
  cfg.seed = 3;
  cfg.shards = shards;
  return cfg;
}

TEST(ShardEquivalence, ShardedLargeScaleIsReproducible) {
  // The contended incast must be exactly reproducible at a fixed width,
  // run-to-run.
  const auto cfg = quick_fig08(4);
  const auto a = run_large_scale(cfg);
  const auto b = run_large_scale(cfg);
  EXPECT_EQ(a.engine.shards, 4);
  EXPECT_EQ(a.spt_act_ms, b.spt_act_ms);
  EXPECT_EQ(a.spt_max_ms, b.spt_max_ms);
  EXPECT_EQ(a.completed_spts, b.completed_spts);
  EXPECT_EQ(a.spt_timeouts, b.spt_timeouts);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.engine.windows, b.engine.windows);
  EXPECT_EQ(a.engine.windows_skipped, b.engine.windows_skipped);
}

TEST(ShardEquivalence, LargeScaleCompletesAtEveryWidth) {
  for (const int shards : {1, 2, 8}) {
    const auto r = run_large_scale(quick_fig08(shards));
    EXPECT_EQ(r.engine.shards, shards);
    EXPECT_GT(r.total_spts, 0);
    EXPECT_GT(r.completed_spts, 0) << "width " << shards;
    EXPECT_GT(r.events_dispatched, 0u);
  }
}

}  // namespace
}  // namespace trim::exp
