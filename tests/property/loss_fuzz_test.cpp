// Randomized loss fuzzing: for every protocol, a transfer through a path
// that drops packets at random (both sparse and bursty patterns) must
// still deliver the exact byte stream, never deadlock, and account every
// loss. This is the failure-injection suite — each (protocol, seed)
// instantiation exercises a different loss pattern.
#include <gtest/gtest.h>

#include <tuple>

#include "core/sender_factory.hpp"
#include "exp/experiment.hpp"
#include "net/queue.hpp"
#include "sim/random.hpp"
#include "../tcp/tcp_test_util.hpp"

namespace trim {
namespace {

// Queue that drops each data packet independently with probability p, and
// additionally injects occasional loss bursts (correlated drops), driven
// by a seeded RNG so failures are reproducible.
class RandomLossQueue : public net::DropTailQueue {
 public:
  RandomLossQueue(double p_drop, double p_burst, std::uint64_t seed)
      : DropTailQueue{net::QueueConfig{}},
        p_drop_{p_drop},
        p_burst_{p_burst},
        rng_{seed} {}

  bool enqueue(net::Packet p) override {
    if (!p.is_ack) {
      if (burst_remaining_ > 0) {
        --burst_remaining_;
        drop(p);
        return false;
      }
      const double u = rng_.uniform01();
      if (u < p_burst_) {
        burst_remaining_ = static_cast<int>(rng_.uniform_int(2, 6));
        drop(p);
        return false;
      }
      if (u < p_burst_ + p_drop_) {
        drop(p);
        return false;
      }
    }
    return DropTailQueue::enqueue(std::move(p));
  }

 private:
  double p_drop_, p_burst_;
  sim::Rng rng_;
  int burst_remaining_ = 0;
};

using Param = std::tuple<tcp::Protocol, int /*seed*/>;

class LossFuzz : public ::testing::TestWithParam<Param> {};

TEST_P(LossFuzz, ExactDeliveryUnderRandomLoss) {
  const auto [protocol, seed] = GetParam();

  sim::Simulator sim;
  net::Host a{&sim, 0, "a"}, b{&sim, 1, "b"};
  auto lossy = std::make_unique<RandomLossQueue>(0.02, 0.005,
                                                 exp::run_seed(0xF022, seed));
  auto* lossy_raw = lossy.get();
  net::Link ab{&sim, "a->b", 1'000'000'000, sim::SimTime::micros(50),
               std::move(lossy)};
  net::Link ba{&sim, "b->a", 1'000'000'000, sim::SimTime::micros(50),
               net::make_queue(net::QueueConfig{})};
  ab.set_peer(&b);
  ba.set_peer(&a);
  a.attach_link(&ab);
  b.attach_link(&ba);

  core::ProtocolOptions opts;
  opts.tcp.min_rto = sim::SimTime::millis(10);
  if (protocol == tcp::Protocol::kTrim) {
    opts.trim = core::TrimConfig::for_link(1'000'000'000, opts.tcp.mss);
  }

  tcp::TcpReceiver receiver{&b, 1, a.id()};
  auto sender = core::make_sender(protocol, &a, b.id(), 1, opts);

  const std::uint64_t total = 777 * 1460 + 123;  // odd tail on purpose
  sender->write(total);
  sim.run_until(sim::SimTime::seconds(120));

  EXPECT_TRUE(sender->idle()) << tcp::to_string(protocol) << " seed " << seed;
  EXPECT_EQ(receiver.delivered_bytes(), total);
  EXPECT_EQ(sender->bytes_acked(), total);
  // Losses really happened (the fuzz is live) and were all repaired.
  EXPECT_GT(lossy_raw->stats().dropped, 0u);
  EXPECT_GE(sender->stats().retransmitted_packets, lossy_raw->stats().dropped / 2);
  // No phantom deliveries: receiver saw at most sent packets.
  EXPECT_LE(receiver.received_data_packets(), sender->stats().data_packets_sent);
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, LossFuzz,
    ::testing::Combine(
        ::testing::Values(tcp::Protocol::kReno, tcp::Protocol::kCubic,
                          tcp::Protocol::kDctcp, tcp::Protocol::kL2dct,
                          tcp::Protocol::kTrim, tcp::Protocol::kVegas,
                          tcp::Protocol::kGip),
        ::testing::Range(0, 5)),
    [](const ::testing::TestParamInfo<Param>& info) {
      auto name = tcp::to_string(std::get<0>(info.param)) + "_seed" +
                  std::to_string(std::get<1>(info.param));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ACK-path loss: drop random ACKs instead of data. Cumulative ACKs must
// absorb the gaps without any retransmission storm.
class AckLossFuzz : public ::testing::TestWithParam<int> {};

TEST_P(AckLossFuzz, CumulativeAcksAbsorbAckLoss) {
  sim::Simulator sim;
  net::Host a{&sim, 0, "a"}, b{&sim, 1, "b"};
  net::Link ab{&sim, "a->b", 1'000'000'000, sim::SimTime::micros(50),
               net::make_queue(net::QueueConfig{})};
  // The "data" direction of b->a carries ACKs; reuse the lossy queue with
  // inverted semantics by dropping non-ack == false packets... ACKs have
  // is_ack set, so drop them via a small custom queue:
  class AckDropQueue : public net::DropTailQueue {
   public:
    explicit AckDropQueue(std::uint64_t seed)
        : DropTailQueue{net::QueueConfig{}}, rng_{seed} {}
    bool enqueue(net::Packet p) override {
      if (p.is_ack && rng_.uniform01() < 0.2) {
        drop(p);
        return false;
      }
      return DropTailQueue::enqueue(std::move(p));
    }

   private:
    sim::Rng rng_;
  };
  auto lossy = std::make_unique<AckDropQueue>(exp::run_seed(0xACC, GetParam()));
  net::Link ba{&sim, "b->a", 1'000'000'000, sim::SimTime::micros(50),
               std::move(lossy)};
  ab.set_peer(&b);
  ba.set_peer(&a);
  a.attach_link(&ab);
  b.attach_link(&ba);

  tcp::TcpReceiver receiver{&b, 1, a.id()};
  core::ProtocolOptions opts;
  opts.tcp.min_rto = sim::SimTime::millis(10);
  auto sender = core::make_sender(tcp::Protocol::kReno, &a, b.id(), 1, opts);
  const std::uint64_t total = 300 * 1460;
  sender->write(total);
  sim.run_until(sim::SimTime::seconds(60));

  EXPECT_TRUE(sender->idle());
  EXPECT_EQ(receiver.delivered_bytes(), total);
  // 20% ACK loss must not cause a comparable data retransmission rate.
  EXPECT_LT(sender->stats().retransmitted_packets, 30u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AckLossFuzz, ::testing::Range(0, 4));

}  // namespace
}  // namespace trim
