// Tests for the extension features: Vegas and GIP baselines and handshake
// simulation.
#include <gtest/gtest.h>

#include "tcp/gip.hpp"
#include "tcp/reno.hpp"
#include "tcp/tcp_receiver.hpp"
#include "tcp/vegas.hpp"
#include "tcp_test_util.hpp"

namespace trim::tcp {
namespace {

using test::HostPair;

// ---------- Vegas ----------

TEST(Vegas, DeliversCleanStream) {
  HostPair net;
  TcpReceiver recv{&net.b, 1, net.a.id()};
  VegasSender sender{&net.a, net.b.id(), 1, TcpConfig{}};
  sender.write(500 * 1460);
  net.sim.run();
  EXPECT_TRUE(sender.idle());
  EXPECT_EQ(recv.delivered_bytes(), 500u * 1460);
  EXPECT_EQ(sender.protocol(), Protocol::kVegas);
}

TEST(Vegas, HoldsBacklogBetweenAlphaAndBeta) {
  // Single flow through a 100-pkt bottleneck: Vegas should keep only a few
  // packets queued (diff in [alpha, beta]) instead of filling the buffer.
  HostPair net{1'000'000'000, sim::SimTime::micros(200),
               net::QueueConfig::droptail_packets(100)};
  stats::TimeSeries queue_trace;
  net.data_queue->set_length_trace(&queue_trace);
  TcpReceiver recv{&net.b, 1, net.a.id()};
  VegasSender sender{&net.a, net.b.id(), 1, TcpConfig{}};
  sender.write(5000 * 1460);
  net.sim.run();
  EXPECT_TRUE(sender.idle());
  EXPECT_EQ(net.data_queue->stats().dropped, 0u);
  // Steady backlog stays tiny (the slow-start overshoot is transient, so
  // judge the time-weighted average, not the instantaneous peak).
  EXPECT_LT(queue_trace.time_weighted_mean(), 10.0);
  // And the measured diff settled inside (or near) the [1,3] band.
  EXPECT_LT(sender.last_diff(), 6.0);
}

TEST(Vegas, RecoversFromLoss) {
  HostPair net;
  TcpReceiver recv{&net.b, 1, net.a.id()};
  VegasSender sender{&net.a, net.b.id(), 1, TcpConfig{}};
  net.data_queue->drop_segment_once(30);
  sender.write(300 * 1460);
  net.sim.run();
  EXPECT_TRUE(sender.idle());
  EXPECT_EQ(recv.delivered_bytes(), 300u * 1460);
}

// ---------- GIP ----------

TEST(Gip, ResetsWindowAtEveryNewTrain) {
  HostPair net{1'000'000'000, sim::SimTime::micros(500)};
  TcpReceiver recv{&net.b, 1, net.a.id()};
  GipSender sender{&net.a, net.b.id(), 1, TcpConfig{}};
  sender.write(300 * 1460);  // train 1 grows the window
  net.sim.run();
  EXPECT_EQ(sender.train_resets(), 0u);  // first train: nothing to reset

  net.sim.schedule(sim::SimTime::millis(5), [&] { sender.write(100 * 1460); });
  net.sim.run();
  EXPECT_EQ(sender.train_resets(), 1u);
  EXPECT_TRUE(sender.idle());
  EXPECT_EQ(recv.delivered_bytes(), 400u * 1460);
}

TEST(Gip, DuplicatesTailSegmentOfEachTrain) {
  HostPair net;
  TcpReceiver recv{&net.b, 1, net.a.id()};
  GipSender sender{&net.a, net.b.id(), 1, TcpConfig{}};
  sender.write(10 * 1460);
  net.sim.run();
  // 10 segments + 1 redundant tail copy.
  EXPECT_EQ(recv.received_data_packets(), 11u);
  EXPECT_EQ(recv.duplicate_data_packets(), 1u);
  EXPECT_EQ(recv.delivered_bytes(), 10u * 1460);
}

TEST(Gip, RedundantTailSavesTheTrainFromTailLossRto) {
  HostPair net;
  TcpConfig cfg;
  cfg.min_rto = sim::SimTime::millis(50);
  TcpReceiver recv{&net.b, 1, net.a.id()};
  GipSender sender{&net.a, net.b.id(), 1, TcpConfig{cfg}};
  // Drop the *first* copy of the final segment: the redundant copy must
  // complete the train without any RTO.
  net.data_queue->drop_segment_once(9);
  sender.write(10 * 1460);
  net.sim.run();
  EXPECT_TRUE(sender.idle());
  EXPECT_EQ(sender.stats().timeouts, 0u);
  EXPECT_EQ(recv.delivered_bytes(), 10u * 1460);
}

TEST(Gip, MinimumWindowIsTwo) {
  HostPair net;
  GipSender sender{&net.a, net.b.id(), 1, TcpConfig{}};
  EXPECT_GE(sender.cwnd(), 2.0);
  EXPECT_GE(sender.config().cwnd_after_rto, 2.0);
}

// ---------- message boundary helpers ----------

TEST(MessageBoundaries, StartAndEndDetection) {
  HostPair net;
  TcpReceiver recv{&net.b, 1, net.a.id()};
  RenoSender sender{&net.a, net.b.id(), 1, TcpConfig{}};
  sender.write(3 * 1460);   // segs 0..2
  sender.write(1460);       // seg 3
  sender.write(2 * 1460);   // segs 4..5
  EXPECT_TRUE(sender.is_message_start(0));
  EXPECT_FALSE(sender.is_message_start(1));
  EXPECT_TRUE(sender.is_message_end(2));
  EXPECT_TRUE(sender.is_message_start(3));
  EXPECT_TRUE(sender.is_message_end(3));  // 1-segment message
  EXPECT_TRUE(sender.is_message_start(4));
  EXPECT_TRUE(sender.is_message_end(5));
  EXPECT_FALSE(sender.is_message_end(4));
  EXPECT_EQ(sender.outstanding_messages().size(), 3u);
  net.sim.run();
}

// ---------- handshake ----------

TEST(Handshake, ThreeWayBeforeData) {
  HostPair net;
  TcpConfig cfg;
  cfg.simulate_handshake = true;
  TcpReceiver recv{&net.b, 1, net.a.id()};
  RenoSender sender{&net.a, net.b.id(), 1, cfg};
  EXPECT_FALSE(sender.connection_established());
  sender.write(10 * 1460);
  net.sim.run();
  EXPECT_TRUE(sender.connection_established());
  EXPECT_TRUE(sender.idle());
  EXPECT_EQ(recv.delivered_bytes(), 10u * 1460);
  // The SYN/SYN-ACK exchange primed the RTT estimator.
  EXPECT_TRUE(sender.rtt().has_sample());
}

TEST(Handshake, AddsOneRttToCompletion) {
  auto completion_ms = [](bool handshake) {
    HostPair net;
    TcpConfig cfg;
    cfg.simulate_handshake = handshake;
    TcpReceiver recv{&net.b, 1, net.a.id()};
    RenoSender sender{&net.a, net.b.id(), 1, cfg};
    sender.write(4 * 1460);
    net.sim.run();
    return sender.stats().completed_message_times().at(0).to_micros();
  };
  const double persistent = completion_ms(false);
  const double fresh = completion_ms(true);
  // One extra RTT (~112 us on this path).
  EXPECT_NEAR(fresh - persistent, 101.0, 10.0);
}

TEST(Handshake, LostSynIsRetriedByRto) {
  HostPair net;
  TcpConfig cfg;
  cfg.simulate_handshake = true;
  cfg.min_rto = sim::SimTime::millis(10);
  TcpReceiver recv{&net.b, 1, net.a.id()};
  RenoSender sender{&net.a, net.b.id(), 1, cfg};
  net.data_queue->drop_next_data(1);  // the SYN is a data-direction packet
  sender.write(1460);
  net.sim.run();
  EXPECT_TRUE(sender.connection_established());
  EXPECT_TRUE(sender.idle());
  EXPECT_GE(sender.stats().timeouts, 1u);
}

}  // namespace
}  // namespace trim::tcp
