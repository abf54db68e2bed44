#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <string>

#include "tcp/cubic.hpp"
#include "tcp/dctcp.hpp"
#include "tcp/l2dct.hpp"
#include "tcp/tcp_receiver.hpp"
#include "tcp_test_util.hpp"

namespace trim::tcp {
namespace {

using test::HostPair;

// ---------- protocol naming ----------

// Reports and tables key rows by the name, so each name must lead back to
// exactly the protocol that printed it.
TEST(ProtocolNames, RoundTrip) {
  const Protocol all[] = {Protocol::kReno, Protocol::kCubic, Protocol::kDctcp,
                          Protocol::kL2dct, Protocol::kTrim, Protocol::kVegas,
                          Protocol::kGip};
  std::map<std::string, Protocol> by_name;
  for (auto p : all) by_name.emplace(to_string(p), p);
  EXPECT_EQ(by_name.size(), std::size(all));
  for (auto p : all) EXPECT_EQ(by_name.at(to_string(p)), p) << to_string(p);
}

// ---------- CUBIC ----------

TEST(Cubic, DeliversAndRecoversFromLoss) {
  HostPair net;
  TcpReceiver recv{&net.b, 1, net.a.id()};
  CubicSender sender{&net.a, net.b.id(), 1, TcpConfig{}};
  net.data_queue->drop_segment_once(40);
  sender.write(300 * 1460);
  net.sim.run();
  EXPECT_TRUE(sender.idle());
  EXPECT_EQ(recv.delivered_bytes(), 300u * 1460);
  EXPECT_EQ(sender.stats().fast_retransmits, 1u);
  EXPECT_EQ(sender.protocol(), Protocol::kCubic);
}

TEST(Cubic, LossReducesByBetaNotHalf) {
  HostPair net;
  TcpReceiver recv{&net.b, 1, net.a.id()};
  CubicSender sender{&net.a, net.b.id(), 1, TcpConfig{}};
  net.data_queue->drop_segment_once(60);
  sender.write(500 * 1460);
  net.sim.run();
  ASSERT_GT(sender.w_max(), 0.0);  // exactly one loss epoch was registered
  // ssthresh was set to beta * w_max at the (single) loss: 0.7, not 0.5.
  EXPECT_NEAR(sender.ssthresh() / sender.w_max(), 0.7, 0.01);
}

TEST(Cubic, GrowthAfterLossFollowsConcaveShape) {
  // After a reduction, CUBIC grows quickly at first and flattens near
  // w_max: check the window is monotonically nondecreasing between losses.
  HostPair net{1'000'000'000, sim::SimTime::micros(50),
               net::QueueConfig::droptail_packets(50)};
  TcpReceiver recv{&net.b, 1, net.a.id()};
  CubicSender sender{&net.a, net.b.id(), 1, TcpConfig{}};
  sender.write(5000 * 1460);
  net.sim.run();
  EXPECT_TRUE(sender.idle());
  EXPECT_EQ(recv.delivered_bytes(), 5000u * 1460);
}

// ---------- DCTCP ----------

TEST(Dctcp, SetsEctOnDataPackets) {
  HostPair net;
  TcpReceiver recv{&net.b, 1, net.a.id()};
  DctcpSender sender{&net.a, net.b.id(), 1, TcpConfig{}};
  sender.write(10 * 1460);
  net.sim.run();
  // No marking queue on this path; just verify ECT capability is on.
  EXPECT_TRUE(sender.config().ecn_capable);
  EXPECT_EQ(recv.ce_marked_packets(), 0u);
}

TEST(Dctcp, HoldsQueueNearMarkingThresholdWithoutDrops) {
  // Bottleneck marks at 20 packets with a 100-packet buffer: DCTCP should
  // oscillate near K and never overflow.
  HostPair net{1'000'000'000, sim::SimTime::micros(50),
               net::QueueConfig::ecn_packets(100, 20)};
  TcpReceiver recv{&net.b, 1, net.a.id()};
  DctcpSender sender{&net.a, net.b.id(), 1, TcpConfig{}};
  sender.write(3000 * 1460);
  net.sim.run();
  EXPECT_TRUE(sender.idle());
  EXPECT_EQ(net.data_queue->stats().dropped, 0u);
  EXPECT_GT(net.data_queue->stats().marked_ce, 0u);
  EXPECT_GT(sender.stats().ecn_marked_acks, 0u);
  // Alpha converged somewhere sane.
  EXPECT_GT(sender.alpha(), 0.0);
  EXPECT_LE(sender.alpha(), 1.0);
}

TEST(Dctcp, AlphaFollowsMarkFractionEwma) {
  // Drive the sender with hand-crafted ACK streams: alpha must rise toward
  // 1 under all-marked windows and decay geometrically once marks stop.
  HostPair net;
  DctcpSender sender{&net.a, net.b.id(), 1, TcpConfig{}};
  sender.write(100'000'000);  // plenty of segments to ack

  std::uint64_t next_ack = 1;
  auto feed_acks = [&](int n, bool ece) {
    for (int i = 0; i < n; ++i) {
      net::Packet ack;
      ack.is_ack = true;
      ack.flow = 1;
      ack.seq = next_ack;
      ack.ack_of_seq = next_ack - 1;
      ack.ece = ece;
      ack.ts = net.sim.now();
      ++next_ack;
      sender.on_packet(ack);
    }
  };

  feed_acks(2000, true);
  const double alpha_marked = sender.alpha();
  EXPECT_GT(alpha_marked, 0.8);  // every window fully marked -> alpha ~ 1

  feed_acks(20000, false);
  EXPECT_LT(sender.alpha(), 0.05);  // decays by (1-g) per clean window
}

TEST(Dctcp, LossStillTriggersStandardRecovery) {
  HostPair net;
  TcpReceiver recv{&net.b, 1, net.a.id()};
  DctcpSender sender{&net.a, net.b.id(), 1, TcpConfig{}};
  net.data_queue->drop_segment_once(25);
  sender.write(200 * 1460);
  net.sim.run();
  EXPECT_TRUE(sender.idle());
  EXPECT_EQ(sender.stats().fast_retransmits, 1u);
}

// ---------- L2DCT ----------

TEST(L2dct, WeightStartsHighAndDecaysWithService) {
  HostPair net{1'000'000'000, sim::SimTime::micros(50),
               net::QueueConfig::ecn_packets(100, 20)};
  TcpReceiver recv{&net.b, 1, net.a.id()};
  L2dctSender sender{&net.a, net.b.id(), 1, TcpConfig{}};
  EXPECT_NEAR(sender.weight(), 2.5, 0.01);  // fresh flow: w_max
  sender.write(3'000'000);                  // ~3 MB of attained service
  net.sim.run();
  EXPECT_TRUE(sender.idle());
  EXPECT_LT(sender.weight(), 0.2);  // decayed toward w_min
  EXPECT_GE(sender.weight(), 0.125);
}

TEST(L2dct, BehavesLikeDctcpUnderEcn) {
  HostPair net{1'000'000'000, sim::SimTime::micros(50),
               net::QueueConfig::ecn_packets(100, 20)};
  TcpReceiver recv{&net.b, 1, net.a.id()};
  L2dctSender sender{&net.a, net.b.id(), 1, TcpConfig{}};
  sender.write(2000 * 1460);
  net.sim.run();
  EXPECT_TRUE(sender.idle());
  EXPECT_EQ(net.data_queue->stats().dropped, 0u);
  EXPECT_GT(net.data_queue->stats().marked_ce, 0u);
  EXPECT_EQ(sender.protocol(), Protocol::kL2dct);
}

}  // namespace
}  // namespace trim::tcp
