// The full connection lifecycle: three-way handshake, FIN teardown from
// both sides, RST paths, control-packet loss with exponential backoff,
// simultaneous close, TIME_WAIT dwell, and the challenge-ACK defense.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/host.hpp"
#include "net/link.hpp"
#include "net/queue.hpp"
#include "sim/config_error.hpp"
#include "tcp/lifecycle.hpp"
#include "tcp/reno.hpp"
#include "tcp/rst_responder.hpp"
#include "tcp/tcp_receiver.hpp"
#include "tcp_test_util.hpp"

namespace trim::tcp {
namespace {

// Drops selected lifecycle control packets, once per request. The
// ScriptedDropQueue in tcp_test_util.hpp only matches data-direction
// packets by sequence number; handshake tests need to lose SYN-ACKs and
// FINs by *flag*, in either direction.
class CtrlDropQueue : public net::DropTailQueue {
 public:
  explicit CtrlDropQueue(net::QueueConfig cfg = {}) : DropTailQueue{cfg} {}

  void drop_syn(int n) { drop_syn_ += n; }
  void drop_synack(int n) { drop_synack_ += n; }
  void drop_fin(int n) { drop_fin_ += n; }

  bool enqueue(net::Packet p) override {
    if (p.syn && !p.is_ack && take(drop_syn_)) return drop_it(p);
    if (p.syn && p.is_ack && take(drop_synack_)) return drop_it(p);
    if (p.fin && take(drop_fin_)) return drop_it(p);
    return DropTailQueue::enqueue(std::move(p));
  }

 private:
  static bool take(int& n) {
    if (n <= 0) return false;
    --n;
    return true;
  }
  bool drop_it(net::Packet& p) {
    drop(p);
    return false;
  }

  int drop_syn_ = 0;
  int drop_synack_ = 0;
  int drop_fin_ = 0;
};

// Two hosts with a CtrlDropQueue in each direction.
struct LifecyclePair {
  explicit LifecyclePair(sim::SimTime delay = sim::SimTime::micros(50)) {
    auto qab = std::make_unique<CtrlDropQueue>();
    auto qba = std::make_unique<CtrlDropQueue>();
    to_b = qab.get();
    to_a = qba.get();
    ab = std::make_unique<net::Link>(&sim, "a->b", 1'000'000'000, delay,
                                     std::move(qab));
    ba = std::make_unique<net::Link>(&sim, "b->a", 1'000'000'000, delay,
                                     std::move(qba));
    ab->set_peer(&b);
    ba->set_peer(&a);
    a.attach_link(ab.get());
    b.attach_link(ba.get());
  }

  sim::Simulator sim;
  net::Host a{&sim, 0, "a"};
  net::Host b{&sim, 1, "b"};
  std::unique_ptr<net::Link> ab, ba;
  CtrlDropQueue* to_b = nullptr;  // a -> b direction (SYN, data, sender FIN)
  CtrlDropQueue* to_a = nullptr;  // b -> a direction (SYN-ACK, ACKs, recv FIN)
};

TcpConfig lifecycle_cfg() {
  TcpConfig cfg;
  cfg.simulate_handshake = true;
  cfg.min_rto = sim::SimTime::millis(20);
  cfg.lifecycle.time_wait = sim::SimTime::millis(10);
  cfg.lifecycle.retx_rto_initial = sim::SimTime::millis(20);
  return cfg;
}

ReceiverConfig listen_cfg(const TcpConfig& cfg) {
  ReceiverConfig rc;
  rc.expect_handshake = true;
  rc.lifecycle = cfg.lifecycle;
  return rc;
}

TEST(Lifecycle, ConfigValidationRejectsNonsense) {
  {
    LifecycleConfig c;
    c.time_wait = sim::SimTime::millis(-1);
    EXPECT_THROW(validate(c), ConfigError);
  }
  {
    LifecycleConfig c;
    c.retx_rto_initial = sim::SimTime::zero();
    EXPECT_THROW(validate(c), ConfigError);
  }
  {
    LifecycleConfig c;
    c.retx_rto_max = sim::SimTime::millis(1);  // below the 200 ms initial
    EXPECT_THROW(validate(c), ConfigError);
  }
}

TEST(Lifecycle, FullLifeFromListenToClosedOnBothSides) {
  LifecyclePair net;
  const auto cfg = lifecycle_cfg();
  TcpReceiver recv{&net.b, 1, net.a.id(), listen_cfg(cfg)};
  RenoSender sender{&net.a, net.b.id(), 1, cfg};
  EXPECT_EQ(recv.conn_state(), ConnState::kListen);
  EXPECT_EQ(sender.conn_state(), ConnState::kClosed);

  sender.connect();
  EXPECT_EQ(sender.conn_state(), ConnState::kSynSent);
  sender.write(10 * 1460);
  sender.close();  // FIN follows the last acked byte
  net.sim.run();

  EXPECT_EQ(recv.delivered_bytes(), 10u * 1460);
  EXPECT_EQ(sender.conn_state(), ConnState::kClosed);
  EXPECT_EQ(recv.conn_state(), ConnState::kClosed);
  EXPECT_TRUE(sender.lifecycle_stats().ever_established);
  EXPECT_TRUE(sender.lifecycle_stats().graceful_close);
  EXPECT_TRUE(recv.lifecycle_stats().graceful_close);
  EXPECT_GT(sender.lifecycle_stats().setup_latency, sim::SimTime::zero());
  EXPECT_EQ(recv.data_before_established(), 0u);
  // Clean path: one SYN, one SYN-ACK, one FIN each way, zero RSTs.
  EXPECT_EQ(sender.lifecycle_stats().syn_sent, 1u);
  EXPECT_EQ(sender.lifecycle_stats().syn_retx, 0u);
  EXPECT_EQ(recv.lifecycle_stats().synack_sent, 1u);
  EXPECT_EQ(sender.lifecycle_stats().fin_sent, 1u);
  EXPECT_EQ(recv.lifecycle_stats().fin_sent, 1u);
  EXPECT_EQ(sender.lifecycle_stats().rst_sent, 0u);
  EXPECT_EQ(recv.lifecycle_stats().rst_sent, 0u);
}

TEST(Lifecycle, SynLossBackoffDoublesUpToMaxRto) {
  LifecyclePair net;
  auto cfg = lifecycle_cfg();
  cfg.min_rto = sim::SimTime::millis(100);
  cfg.max_rto = sim::SimTime::millis(400);
  TcpReceiver recv{&net.b, 1, net.a.id(), listen_cfg(cfg)};
  RenoSender sender{&net.a, net.b.id(), 1, cfg};
  // Lose 4 SYNs: retransmissions fire after 100, 200, 400, 400 ms — the
  // exponential backoff caps at max_rto instead of doubling forever.
  net.to_b->drop_syn(4);
  sender.connect();
  sender.write(1460);
  sender.close();
  net.sim.run();
  EXPECT_TRUE(sender.lifecycle_stats().ever_established);
  EXPECT_EQ(sender.lifecycle_stats().syn_retx, 4u);
  const double setup_ms = sender.lifecycle_stats().setup_latency.to_millis();
  EXPECT_NEAR(setup_ms, 1100.0, 5.0);  // 100+200+400+400 + ~0.1 handshake RTT
  EXPECT_EQ(recv.delivered_bytes(), 1460u);
  EXPECT_TRUE(sender.lifecycle_stats().graceful_close);
}

TEST(Lifecycle, SynGiveUpAbortsAfterMaxRetries) {
  LifecyclePair net;
  const auto cfg = lifecycle_cfg();
  TcpReceiver recv{&net.b, 1, net.a.id(), listen_cfg(cfg)};
  RenoSender sender{&net.a, net.b.id(), 1, cfg};
  bool closed = false, graceful = true;
  sender.add_closed_callback([&](bool g, sim::SimTime) {
    closed = true;
    graceful = g;
  });
  net.to_b->drop_syn(100);  // the server is unreachable
  sender.connect();
  sender.write(1460);
  net.sim.run();
  EXPECT_TRUE(closed);
  EXPECT_FALSE(graceful);
  EXPECT_EQ(sender.conn_state(), ConnState::kClosed);
  EXPECT_FALSE(sender.lifecycle_stats().ever_established);
  EXPECT_EQ(sender.lifecycle_stats().syn_retx,
            static_cast<std::uint64_t>(LifecycleConfig::max_syn_retries));
  EXPECT_EQ(recv.conn_state(), ConnState::kListen);  // never heard a thing
}

TEST(Lifecycle, SynAckLossIsRepairedByReceiverRetx) {
  LifecyclePair net;
  const auto cfg = lifecycle_cfg();
  TcpReceiver recv{&net.b, 1, net.a.id(), listen_cfg(cfg)};
  RenoSender sender{&net.a, net.b.id(), 1, cfg};
  net.to_a->drop_synack(1);
  sender.connect();
  sender.write(4 * 1460);
  sender.close();
  net.sim.run();
  EXPECT_TRUE(sender.lifecycle_stats().ever_established);
  // Repaired by whichever timer fired first (the receiver's SYN-ACK
  // retransmit or the sender's SYN RTO) — either way both sides finish.
  EXPECT_GE(recv.lifecycle_stats().synack_retx + sender.lifecycle_stats().syn_retx,
            1u);
  EXPECT_EQ(recv.delivered_bytes(), 4u * 1460);
  EXPECT_EQ(sender.conn_state(), ConnState::kClosed);
  EXPECT_EQ(recv.conn_state(), ConnState::kClosed);
}

TEST(Lifecycle, SenderFinLossIsRetransmitted) {
  LifecyclePair net;
  const auto cfg = lifecycle_cfg();
  TcpReceiver recv{&net.b, 1, net.a.id(), listen_cfg(cfg)};
  RenoSender sender{&net.a, net.b.id(), 1, cfg};
  net.to_b->drop_fin(1);
  sender.connect();
  sender.write(4 * 1460);
  sender.close();
  net.sim.run();
  EXPECT_EQ(sender.lifecycle_stats().fin_retx, 1u);
  EXPECT_TRUE(sender.lifecycle_stats().graceful_close);
  EXPECT_TRUE(recv.lifecycle_stats().graceful_close);
  EXPECT_EQ(sender.conn_state(), ConnState::kClosed);
  EXPECT_EQ(recv.conn_state(), ConnState::kClosed);
}

TEST(Lifecycle, ReceiverFinLossIsRetransmitted) {
  LifecyclePair net;
  const auto cfg = lifecycle_cfg();
  TcpReceiver recv{&net.b, 1, net.a.id(), listen_cfg(cfg)};
  RenoSender sender{&net.a, net.b.id(), 1, cfg};
  net.to_a->drop_fin(1);  // the receiver's own FIN, on the ACK path
  sender.connect();
  sender.write(4 * 1460);
  sender.close();
  net.sim.run();
  EXPECT_GE(recv.lifecycle_stats().fin_retx, 1u);
  EXPECT_TRUE(sender.lifecycle_stats().graceful_close);
  EXPECT_TRUE(recv.lifecycle_stats().graceful_close);
  EXPECT_EQ(sender.conn_state(), ConnState::kClosed);
  EXPECT_EQ(recv.conn_state(), ConnState::kClosed);
}

TEST(Lifecycle, SimultaneousCloseDrainsBothStateMachines) {
  LifecyclePair net;
  // The receiver's own close() puts it in FIN_WAIT_1 before the peer's FIN
  // lands, so the auto-close on the peer's FIN never fires.
  const auto cfg = lifecycle_cfg();
  TcpReceiver recv{&net.b, 1, net.a.id(), listen_cfg(cfg)};
  RenoSender sender{&net.a, net.b.id(), 1, cfg};
  sender.connect();
  sender.write(4 * 1460);
  net.sim.run();  // transfer completes, both sides ESTABLISHED
  ASSERT_EQ(sender.conn_state(), ConnState::kEstablished);
  ASSERT_EQ(recv.conn_state(), ConnState::kEstablished);

  // Both FINs leave at the same instant and cross in flight.
  net.sim.schedule(sim::SimTime::millis(1), [&] {
    sender.close();
    recv.close();
  });
  net.sim.run();
  EXPECT_EQ(sender.conn_state(), ConnState::kClosed);
  EXPECT_EQ(recv.conn_state(), ConnState::kClosed);
  EXPECT_TRUE(sender.lifecycle_stats().graceful_close);
  EXPECT_TRUE(recv.lifecycle_stats().graceful_close);
  EXPECT_EQ(sender.lifecycle_stats().fin_sent, 1u);
  EXPECT_EQ(recv.lifecycle_stats().fin_sent, 1u);
}

TEST(Lifecycle, AbortDuringTransferResetsBothSides) {
  LifecyclePair net;
  const auto cfg = lifecycle_cfg();
  TcpReceiver recv{&net.b, 1, net.a.id(), listen_cfg(cfg)};
  RenoSender sender{&net.a, net.b.id(), 1, cfg};
  sender.connect();
  sender.write(5000 * 1460);  // long enough to still be in flight
  net.sim.schedule(sim::SimTime::millis(5), [&] { sender.abort(); });
  net.sim.run();
  EXPECT_EQ(sender.conn_state(), ConnState::kClosed);
  EXPECT_EQ(recv.conn_state(), ConnState::kClosed);
  EXPECT_FALSE(sender.lifecycle_stats().graceful_close);
  EXPECT_FALSE(recv.lifecycle_stats().graceful_close);
  EXPECT_EQ(sender.lifecycle_stats().rst_sent, 1u);
  EXPECT_EQ(recv.lifecycle_stats().rst_received, 1u);
}

TEST(Lifecycle, TimeWaitDwellsBeforeClosed) {
  LifecyclePair net;
  auto cfg = lifecycle_cfg();
  cfg.lifecycle.time_wait = sim::SimTime::millis(300);
  TcpReceiver recv{&net.b, 1, net.a.id(), listen_cfg(cfg)};
  RenoSender sender{&net.a, net.b.id(), 1, cfg};
  sender.connect();
  sender.write(1460);
  sender.close();
  // Well after the FIN exchange but inside the dwell, the active closer
  // still guards the 4-tuple.
  net.sim.run_until(sim::SimTime::millis(100));
  EXPECT_EQ(sender.conn_state(), ConnState::kTimeWait);
  EXPECT_TRUE(sender.time_wait_timer_armed());
  EXPECT_EQ(recv.conn_state(), ConnState::kClosed);  // passive side is done
  net.sim.run();
  EXPECT_EQ(sender.conn_state(), ConnState::kClosed);
  EXPECT_TRUE(sender.lifecycle_stats().graceful_close);
}

TEST(Lifecycle, WriteAfterCloseThrows) {
  LifecyclePair net;
  const auto cfg = lifecycle_cfg();
  TcpReceiver recv{&net.b, 1, net.a.id(), listen_cfg(cfg)};
  RenoSender sender{&net.a, net.b.id(), 1, cfg};
  sender.connect();
  sender.write(1460);
  sender.close();
  EXPECT_THROW(sender.write(1460), ConfigError);
  net.sim.run();
  EXPECT_THROW(sender.write(1460), ConfigError);
}

TEST(Lifecycle, ConnectRequiresLifecycleSimulation) {
  test::HostPair net;
  TcpReceiver recv{&net.b, 1, net.a.id()};
  RenoSender sender{&net.a, net.b.id(), 1, TcpConfig{}};  // lifecycle off
  EXPECT_THROW(sender.connect(), ConfigError);
  EXPECT_THROW(sender.close(), ConfigError);
  EXPECT_EQ(sender.conn_state(), ConnState::kEstablished);  // legacy world
}

TEST(Lifecycle, SynIntoEstablishedDrawsChallengeAckNeverRst) {
  LifecyclePair net;
  const auto cfg = lifecycle_cfg();
  TcpReceiver recv{&net.b, 1, net.a.id(), listen_cfg(cfg)};
  RenoSender sender{&net.a, net.b.id(), 1, cfg};
  sender.connect();
  sender.write(4 * 1460);
  net.sim.run();
  ASSERT_EQ(recv.conn_state(), ConnState::kEstablished);

  // A stale duplicate SYN (old incarnation, or a spoof) hits the live
  // connection: RFC 5961 says challenge-ACK, never reset — the mishandling
  // that famously froze the Tokyo Stock Exchange's arrowhead gateways.
  net::Packet stray;
  stray.src = net.a.id();
  stray.dst = net.b.id();
  stray.flow = 1;
  stray.syn = true;
  recv.on_packet(stray);
  EXPECT_EQ(recv.conn_state(), ConnState::kEstablished);
  EXPECT_EQ(recv.lifecycle_stats().challenge_acks, 1u);
  EXPECT_EQ(recv.lifecycle_stats().rst_sent, 0u);
}

TEST(Lifecycle, StrayAckInSynSentDrawsRst) {
  LifecyclePair net;
  const auto cfg = lifecycle_cfg();
  TcpReceiver recv{&net.b, 1, net.a.id(), listen_cfg(cfg)};
  RenoSender sender{&net.a, net.b.id(), 1, cfg};
  sender.connect();
  ASSERT_EQ(sender.conn_state(), ConnState::kSynSent);
  // A plain ACK (e.g. a challenge-ACK aimed at a stale incarnation)
  // arrives before the SYN-ACK: the sender must RST it and keep waiting.
  net::Packet stray;
  stray.src = net.b.id();
  stray.dst = net.a.id();
  stray.flow = 1;
  stray.is_ack = true;
  sender.on_packet(stray);
  EXPECT_EQ(sender.conn_state(), ConnState::kSynSent);
  EXPECT_EQ(sender.lifecycle_stats().rst_sent, 1u);
}

TEST(Lifecycle, DataBeforeEstablishedIsCountedAndReset) {
  LifecyclePair net;
  const auto cfg = lifecycle_cfg();
  TcpReceiver recv{&net.b, 1, net.a.id(), listen_cfg(cfg)};
  ASSERT_EQ(recv.conn_state(), ConnState::kListen);
  net::Packet data;
  data.src = net.a.id();
  data.dst = net.b.id();
  data.flow = 1;
  data.seq = 1;
  data.payload_bytes = 1460;
  recv.on_packet(data);
  EXPECT_EQ(recv.data_before_established(), 1u);
  EXPECT_EQ(recv.lifecycle_stats().rst_sent, 1u);
  EXPECT_EQ(recv.delivered_bytes(), 0u);
}

TEST(Lifecycle, RstResponderAnswersStraysForDeadFlows) {
  LifecyclePair net;
  RstResponder responder{&net.b};
  net.b.set_default_agent(&responder);

  const auto cfg = lifecycle_cfg();
  auto recv = std::make_unique<TcpReceiver>(&net.b, 1, net.a.id(), listen_cfg(cfg));
  RenoSender sender{&net.a, net.b.id(), 1, cfg};
  sender.connect();
  sender.write(4 * 1460);
  sender.close();
  net.sim.run();
  ASSERT_EQ(sender.conn_state(), ConnState::kClosed);

  // The passive endpoint is gone (churn); a late segment for its flow now
  // reaches the closed-port responder and draws a RST.
  recv.reset();
  net::Packet stray;
  stray.dst = net.b.id();
  stray.flow = 1;
  stray.seq = 2;
  stray.payload_bytes = 1460;
  net.a.send(std::move(stray));
  net.sim.run();
  EXPECT_EQ(responder.rsts_sent(), 1u);
  // And a RST for a dead flow is never answered (no ping-pong).
  EXPECT_EQ(net.b.unroutable_packets(), 1u);
}

}  // namespace
}  // namespace trim::tcp
