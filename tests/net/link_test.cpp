#include <gtest/gtest.h>

#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"

namespace trim::net {
namespace {

// Records every delivered packet with its arrival time.
class SinkNode : public Node {
 public:
  using Node::Node;
  void receive(Packet p) override {
    arrivals.push_back({sim_->now(), std::move(p)});
  }
  std::vector<std::pair<sim::SimTime, Packet>> arrivals;
};

Packet sized_packet(std::uint32_t payload, std::uint64_t seq = 0) {
  Packet p;
  p.payload_bytes = payload;
  p.seq = seq;
  return p;
}

class LinkTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  SinkNode sink{&sim, 1, "sink"};
};

TEST_F(LinkTest, DeliveryTimeIsSerializationPlusPropagation) {
  // 1460+40 = 1500 B at 1 Gbps = 12 us; plus 50 us propagation.
  Link link{&sim, "l", 1'000'000'000, sim::SimTime::micros(50),
            make_queue(QueueConfig{})};
  link.set_peer(&sink);
  link.send(sized_packet(1460));
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].first, sim::SimTime::micros(62));
}

TEST_F(LinkTest, BackToBackPacketsAreSerialized) {
  Link link{&sim, "l", 1'000'000'000, sim::SimTime::micros(10),
            make_queue(QueueConfig{})};
  link.set_peer(&sink);
  for (int i = 0; i < 3; ++i) link.send(sized_packet(1460, i));
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 3u);
  // Arrivals spaced by exactly one serialization time (12 us).
  EXPECT_EQ(sink.arrivals[0].first, sim::SimTime::micros(22));
  EXPECT_EQ(sink.arrivals[1].first, sim::SimTime::micros(34));
  EXPECT_EQ(sink.arrivals[2].first, sim::SimTime::micros(46));
  // FIFO order preserved.
  for (std::uint64_t i = 0; i < 3; ++i) EXPECT_EQ(sink.arrivals[i].second.seq, i);
}

TEST_F(LinkTest, ThroughputNeverExceedsBandwidth) {
  Link link{&sim, "l", 100'000'000, sim::SimTime::micros(10),
            make_queue(QueueConfig{})};
  link.set_peer(&sink);
  const int n = 200;
  for (int i = 0; i < n; ++i) link.send(sized_packet(1460, i));
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), static_cast<std::size_t>(n));
  const double duration = (sink.arrivals.back().first - sim::SimTime::zero()).to_seconds();
  const double bits = static_cast<double>(n) * 1500 * 8;
  EXPECT_LE(bits / duration, 100e6 * 1.001);
}

TEST_F(LinkTest, QueueOverflowDropsButLinkKeepsGoing) {
  Link link{&sim, "l", 1'000'000'000, sim::SimTime::micros(10),
            make_queue(QueueConfig::droptail_packets(5))};
  link.set_peer(&sink);
  for (int i = 0; i < 50; ++i) link.send(sized_packet(1460, i));
  sim.run();
  // 5 queued + the one in transmission escaped before overflow.
  EXPECT_GE(sink.arrivals.size(), 5u);
  EXPECT_LT(sink.arrivals.size(), 50u);
  EXPECT_EQ(sink.arrivals.size() + link.queue().stats().dropped, 50u);
  EXPECT_EQ(link.packets_delivered(), sink.arrivals.size());
}

TEST_F(LinkTest, IdleThenBusyCycles) {
  Link link{&sim, "l", 1'000'000'000, sim::SimTime::micros(5),
            make_queue(QueueConfig{})};
  link.set_peer(&sink);
  link.send(sized_packet(1460));
  sim.run();
  link.send(sized_packet(1460));
  sim.run();
  EXPECT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(link.bytes_delivered(), 2u * 1500u);
}

TEST_F(LinkTest, DeliveryMeterCountsBytes) {
  stats::RateMeter meter{sim::SimTime::millis(1)};
  Link link{&sim, "l", 1'000'000'000, sim::SimTime::micros(5),
            make_queue(QueueConfig{})};
  link.set_peer(&sink);
  link.set_delivery_meter(&meter);
  for (int i = 0; i < 10; ++i) link.send(sized_packet(1460));
  sim.run();
  EXPECT_EQ(meter.total_bytes(), 15'000u);
}

// A queue trace installed before the link moves to another simulator (as
// Network::apply_partition moves it to a shard) stamps with the new clock.
TEST_F(LinkTest, QueueTraceFollowsRebind) {
  Link link{&sim, "l", 1'000'000'000, sim::SimTime::micros(5),
            make_queue(QueueConfig{})};
  link.set_peer(&sink);
  stats::TimeSeries trace;
  link.queue().set_length_trace(&trace);
  sim::Simulator shard;
  shard.run_until(sim::SimTime::millis(5));
  link.rebind_simulator(&shard);
  link.send(sized_packet(1460));
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.samples().front().at, sim::SimTime::millis(5));
}

TEST(LinkConstruction, RejectsBadParameters) {
  sim::Simulator sim;
  EXPECT_THROW(Link(&sim, "l", 0, sim::SimTime::micros(1), make_queue(QueueConfig{})),
               std::invalid_argument);
  EXPECT_THROW(Link(nullptr, "l", 1, sim::SimTime::micros(1), make_queue(QueueConfig{})),
               std::invalid_argument);
}

}  // namespace
}  // namespace trim::net
