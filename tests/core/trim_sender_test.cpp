#include <gtest/gtest.h>

#include <memory>

#include "core/trim_sender.hpp"
#include "tcp/reno.hpp"
#include "tcp/tcp_receiver.hpp"
#include "../tcp/tcp_test_util.hpp"

namespace trim::core {
namespace {

using test::HostPair;

TrimConfig gig_trim() { return TrimConfig::for_link(1'000'000'000, 1460); }

struct TrimFlow {
  explicit TrimFlow(HostPair& net, TrimConfig trim, tcp::TcpConfig cfg = {})
      : receiver{&net.b, 1, net.a.id()},
        sender{&net.a, net.b.id(), 1, cfg, trim} {}
  tcp::TcpReceiver receiver;
  TrimSender sender;
};

TEST(TrimSender, RequiresCapacityOrOverride) {
  HostPair net;
  tcp::TcpReceiver recv{&net.b, 1, net.a.id()};
  EXPECT_THROW(TrimSender(&net.a, net.b.id(), 2, tcp::TcpConfig{}, TrimConfig{}),
               std::invalid_argument);
  TrimConfig with_override;
  with_override.k_override = sim::SimTime::micros(150);
  TrimSender ok{&net.a, net.b.id(), 3, tcp::TcpConfig{}, with_override};
  EXPECT_EQ(ok.k_threshold(), sim::SimTime::micros(150));
}

TEST(TrimSender, EnforcesMinimumWindowOfTwo) {
  HostPair net;
  TrimFlow f{net, gig_trim()};
  EXPECT_GE(f.sender.cwnd(), 2.0);
  EXPECT_GE(f.sender.config().min_cwnd, 2.0);
  EXPECT_GE(f.sender.config().cwnd_after_rto, 2.0);
}

TEST(TrimSender, DeliversCleanStream) {
  HostPair net;
  TrimFlow f{net, gig_trim()};
  f.sender.write(500 * 1460);
  net.sim.run();
  EXPECT_TRUE(f.sender.idle());
  EXPECT_EQ(f.receiver.delivered_bytes(), 500u * 1460);
  EXPECT_EQ(f.sender.stats().timeouts, 0u);
}

TEST(TrimSender, NoProbingDuringContinuousTrain) {
  HostPair net;
  TrimFlow f{net, gig_trim()};
  f.sender.write(2000 * 1460);  // back-to-back, no idle gaps
  net.sim.run();
  EXPECT_EQ(f.sender.stats().probe_rounds, 0u);
}

TEST(TrimSender, ProbesAfterInterTrainGap) {
  // Wide path (BDP ~85 pkts) so the first train builds a real window.
  HostPair net{1'000'000'000, sim::SimTime::micros(500)};
  TrimFlow f{net, gig_trim()};
  f.sender.write(300 * 1460);  // train 1 builds smooth_RTT and the window
  net.sim.run();
  const double inherited = f.sender.cwnd();
  EXPECT_GT(inherited, 40.0);
  // OFF period far exceeding the ~1 ms smooth RTT.
  net.sim.schedule(sim::SimTime::millis(10), [&] { f.sender.write(100 * 1460); });
  net.sim.run();
  EXPECT_EQ(f.sender.stats().probe_rounds, 1u);
  EXPECT_TRUE(f.sender.idle());
  EXPECT_EQ(f.receiver.delivered_bytes(), 400u * 1460);
}

TEST(TrimSender, ProbeOnIdleNetworkRestoresSavedWindow) {
  HostPair net;
  TrimFlow f{net, gig_trim()};
  f.sender.write(200 * 1460);
  net.sim.run();
  const double inherited = f.sender.cwnd();
  net.sim.schedule(sim::SimTime::millis(5), [&] { f.sender.write(200 * 1460); });
  net.sim.run();
  // Probe RTT == min RTT on an idle path: Eq. (1) gives cwnd = s_cwnd.
  // Allow a little slack for the post-resume growth/backoff dynamics.
  EXPECT_GT(f.sender.cwnd(), inherited * 0.5);
  EXPECT_EQ(f.sender.stats().timeouts, 0u);
}

TEST(TrimSender, SmallTrainsStillProbe) {
  HostPair net;
  TrimFlow f{net, gig_trim()};
  f.sender.write(3 * 1460);
  net.sim.run();
  // A 1-packet train after a gap: Sec. III-C says it still probes.
  net.sim.schedule(sim::SimTime::millis(5), [&] { f.sender.write(1000); });
  net.sim.run();
  EXPECT_EQ(f.sender.stats().probe_rounds, 1u);
  EXPECT_TRUE(f.sender.idle());
}

TEST(TrimSender, LostProbesFallBackToMinimumWindow) {
  HostPair net;
  tcp::TcpConfig cfg;
  cfg.min_rto = sim::SimTime::millis(10);
  TrimFlow f{net, gig_trim(), cfg};
  f.sender.write(100 * 1460);
  net.sim.run();
  // Both probes of the next train die; the probe timer must fire, resume
  // at cwnd=2, and the normal RTO machinery repairs the loss.
  net.data_queue->drop_next_data(2);
  net.sim.schedule(sim::SimTime::millis(5), [&] { f.sender.write(50 * 1460); });
  net.sim.run();
  EXPECT_TRUE(f.sender.idle());
  EXPECT_EQ(f.receiver.delivered_bytes(), 150u * 1460);
  EXPECT_EQ(f.sender.stats().probe_rounds, 1u);
}

TEST(TrimSender, CongestedProbeShrinksInheritedWindow) {
  // Cross traffic fills the bottleneck during the OFF period: the probe
  // RTT comes back inflated and Eq. (1) must shrink the inherited window.
  HostPair net{1'000'000'000, sim::SimTime::micros(500),
               net::QueueConfig::droptail_packets(200)};
  TrimFlow f{net, gig_trim()};

  f.sender.write(500 * 1460);
  net.sim.run();
  const double inherited = f.sender.cwnd();
  ASSERT_GT(inherited, 40.0);

  // Deterministic congestion: a 150-packet burst from "other connections"
  // lands in the bottleneck just before the next train, so the probes
  // queue behind ~1.8 ms of backlog and Eq. (1) must slash the window.
  net.sim.schedule(sim::SimTime::millis(30) - sim::SimTime::micros(100), [&] {
    for (int i = 0; i < 150; ++i) {
      net::Packet p;
      p.dst = net.b.id();
      p.flow = 999;  // unregistered: dropped at the host, harmless
      p.payload_bytes = 1460;
      net.ab->send(std::move(p));
    }
  });
  double tuned = -1.0;
  net.sim.schedule(sim::SimTime::millis(30), [&] { f.sender.write(100 * 1460); });
  net.sim.schedule(sim::SimTime::millis(33), [&] { tuned = f.sender.cwnd(); });
  net.sim.run();
  EXPECT_EQ(f.sender.stats().probe_rounds, 1u);
  EXPECT_TRUE(f.sender.idle());
  // The tuned window had to be far below the inherited one: congestion was
  // detected from the inflated probe RTT (Eq. 1).
  ASSERT_GE(tuned, 2.0);
  EXPECT_LT(tuned, inherited * 0.6);
}

TEST(TrimSender, QueueControlKeepsStandingQueueSmall) {
  HostPair net{1'000'000'000, sim::SimTime::micros(50),
               net::QueueConfig::droptail_packets(100)};
  stats::TimeSeries queue_trace;
  net.data_queue->set_length_trace(&queue_trace);
  TrimFlow f{net, gig_trim()};
  f.sender.write(5000 * 1460);
  net.sim.run();
  EXPECT_TRUE(f.sender.idle());
  EXPECT_EQ(net.data_queue->stats().dropped, 0u);
  EXPECT_GT(f.sender.stats().delay_backoffs, 0u);
  // The paper's Fig. 9: TRIM holds a small, stable queue (<< 100 buffer).
  EXPECT_LT(queue_trace.max_value(), 60.0);
}

TEST(TrimSender, WindowNeverDropsBelowTwoUnderHeavyLoss) {
  HostPair net;
  tcp::TcpConfig cfg;
  cfg.min_rto = sim::SimTime::millis(10);
  TrimFlow f{net, gig_trim(), cfg};
  stats::TimeSeries cwnd_trace;
  f.sender.set_cwnd_trace(&cwnd_trace);
  for (int i = 0; i < 6; ++i) net.data_queue->drop_next_data(1);
  f.sender.write(100 * 1460);
  net.sim.run();
  EXPECT_TRUE(f.sender.idle());
  EXPECT_GE(cwnd_trace.min_value(), 2.0);
}

TEST(TrimSender, KTracksMinRttViaEq22) {
  HostPair net;  // 50 us each way: base RTT ~112 us
  TrimFlow f{net, gig_trim()};
  f.sender.write(50 * 1460);
  net.sim.run();
  const auto d = f.sender.min_rtt();
  EXPECT_EQ(f.sender.k_threshold(), recommended_k(d, gig_trim().capacity_pps));
  EXPECT_GE(f.sender.k_threshold(), d);
}

TEST(TrimSender, AblationProbeOffNeverProbes) {
  HostPair net;
  auto trim = gig_trim();
  trim.probe_on_gap = false;
  TrimFlow f{net, trim};
  f.sender.write(100 * 1460);
  net.sim.run();
  net.sim.schedule(sim::SimTime::millis(5), [&] { f.sender.write(100 * 1460); });
  net.sim.run();
  EXPECT_EQ(f.sender.stats().probe_rounds, 0u);
}

TEST(TrimSender, AblationQueueControlOffNeverDelayBacksOff) {
  HostPair net{1'000'000'000, sim::SimTime::micros(50),
               net::QueueConfig::droptail_packets(100)};
  auto trim = gig_trim();
  trim.queue_control = false;
  TrimFlow f{net, trim};
  f.sender.write(2000 * 1460);
  net.sim.run();
  EXPECT_EQ(f.sender.stats().delay_backoffs, 0u);
  // Without delay control a single Reno-grown flow overflows the buffer.
  EXPECT_GT(net.data_queue->stats().dropped, 0u);
}

TEST(TrimSender, DestroyingAProbingSenderCancelsItsProbeTimer) {
  // Wide path (RTT ~1 ms): the probes of the second train are still in
  // flight when the sender dies.
  HostPair net{1'000'000'000, sim::SimTime::micros(500)};
  tcp::TcpReceiver receiver{&net.b, 1, net.a.id()};
  auto sender = std::make_unique<TrimSender>(&net.a, net.b.id(), 1,
                                             tcp::TcpConfig{}, gig_trim());
  sender->write(300 * 1460);
  net.sim.run();
  const auto gap_end = net.sim.now() + sim::SimTime::millis(10);
  net.sim.schedule_at(gap_end, [&] { sender->write(100 * 1460); });
  net.sim.run_until(gap_end + sim::SimTime::micros(1));
  ASSERT_TRUE(sender->probing());
  ASSERT_TRUE(sender->cc_wakeup_pending());
  ASSERT_TRUE(sender->retransmit_timer_armed());

  const std::size_t pending = net.sim.pending_events();
  sender.reset();
  // Both timers that capture the sender go with it: the RTO and the probe
  // timer. A stale probe timer would write into freed (or, in an arena,
  // recycled) storage when it fires.
  ASSERT_EQ(net.sim.pending_events(), pending - 2);
  net.sim.run();
}

TEST(TrimSender, SmoothRttFollowsPaperAlpha) {
  HostPair net;
  TrimFlow f{net, gig_trim()};
  f.sender.write(20 * 1460);
  net.sim.run();
  // smooth_RTT should be near the true ~112 us RTT after a short train.
  EXPECT_NEAR(f.sender.smooth_rtt().to_micros(), 112.0, 15.0);
  EXPECT_NEAR(f.sender.trim_config().smooth_alpha, 0.25, 1e-12);
}

}  // namespace
}  // namespace trim::core
