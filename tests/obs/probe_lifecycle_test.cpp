// Flight-recorder replay of TCP-TRIM's probe lifecycle on a canned
// two-host scenario: the recorded event stream must show the exact
// Algorithm 1 sequence — gap detected, probe mode entered, two probes
// sent, their ACKs (or the probe timeout), and the Eq. 1 / Eq. 3 window
// arithmetic carried in the event payloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "core/trim_sender.hpp"
#include "fault/fault_injector.hpp"
#include "obs/telemetry.hpp"
#include "tcp/tcp_receiver.hpp"
#include "../tcp/tcp_test_util.hpp"

namespace trim::obs {
namespace {

using test::HostPair;

core::TrimConfig gig_trim() {
  return core::TrimConfig::for_link(1'000'000'000, 1460);
}

struct Rig {
  explicit Rig(HostPair& net, core::TrimConfig trim, tcp::TcpConfig cfg = {})
      : receiver{&net.b, 1, net.a.id()},
        sender{&net.a, net.b.id(), 1, cfg, trim} {}
  tcp::TcpReceiver receiver;
  core::TrimSender sender;
};

// Only the probe state machine, in emission order.
std::vector<RecordedEvent> probe_events(const FlightRecorder& rec) {
  std::vector<RecordedEvent> out;
  for (const auto& e : rec.events()) {
    switch (e.kind) {
      case EventKind::kTrimGapDetected:
      case EventKind::kTrimProbeEnter:
      case EventKind::kTrimProbeSent:
      case EventKind::kTrimProbeAck:
      case EventKind::kTrimProbeTimeout:
      case EventKind::kTrimResumeEq1:
        out.push_back(e);
        break;
      default:
        break;
    }
  }
  return out;
}

// Healthy path: train 1 builds the window, an idle gap triggers probing,
// both probe ACKs return in time, and Eq. 1 resumes from the saved cwnd.
TEST(ProbeLifecycle, GapTwoProbesAcksThenEq1Resume) {
  HostPair net;
  Telemetry tele;
  tele.attach(net.sim);
  tele.recorder().enable(65536);
  Rig f{net, gig_trim()};

  f.sender.write(200 * 1460);
  net.sim.run();
  ASSERT_TRUE(f.sender.idle());
  const double cwnd_before_gap = f.sender.cwnd();
  ASSERT_GT(cwnd_before_gap, 2.0);

  net.sim.schedule(sim::SimTime::millis(10), [&] { f.sender.write(50 * 1460); });
  net.sim.run();

  const auto seq = probe_events(tele.recorder());
  ASSERT_EQ(seq.size(), 7u);
  EXPECT_EQ(seq[0].kind, EventKind::kTrimGapDetected);
  EXPECT_GT(seq[0].a, 0.0);       // the idle gap, in seconds
  EXPECT_GT(seq[0].a, seq[0].b);  // gap exceeded the smooth RTT threshold

  EXPECT_EQ(seq[1].kind, EventKind::kTrimProbeEnter);
  EXPECT_DOUBLE_EQ(seq[1].a, cwnd_before_gap);  // saved cwnd
  EXPECT_DOUBLE_EQ(seq[1].b, 2.0);              // Algorithm 1: two probes

  EXPECT_EQ(seq[2].kind, EventKind::kTrimProbeSent);
  EXPECT_EQ(seq[3].kind, EventKind::kTrimProbeSent);
  EXPECT_DOUBLE_EQ(seq[2].b, 1.0);
  EXPECT_DOUBLE_EQ(seq[3].b, 2.0);
  EXPECT_DOUBLE_EQ(seq[3].a, seq[2].a + 1.0);  // consecutive probe segments

  EXPECT_EQ(seq[4].kind, EventKind::kTrimProbeAck);
  EXPECT_EQ(seq[5].kind, EventKind::kTrimProbeAck);
  EXPECT_GT(seq[4].b, 0.0);  // measured probe RTTs
  EXPECT_GT(seq[5].b, 0.0);

  EXPECT_EQ(seq[6].kind, EventKind::kTrimResumeEq1);
  // Replay Eq. 1 from the event payloads alone: tuned cwnd must equal
  // s_cwnd * (1 - (probe_RTT - min_RTT)/min_RTT), clamped at the floor.
  const double saved = seq[1].a;
  const double probe_rtt_s = seq[6].b;
  const double min_rtt_s = f.sender.min_rtt().to_seconds();
  const double expected =
      std::max(2.0, saved * (1.0 - (probe_rtt_s - min_rtt_s) / min_rtt_s));
  EXPECT_NEAR(seq[6].a, expected, 1e-9);
  EXPECT_GE(seq[6].a, 2.0);

  // All lifecycle events carry the emitting flow id.
  for (const auto& e : seq) EXPECT_EQ(e.subject, f.sender.flow_id());

  // The probe RTT histogram saw exactly the two probe ACKs.
  EXPECT_EQ(tele.core().probe_rtt_us->count, 2u);
  EXPECT_EQ(tele.recorder().count(EventKind::kTrimProbeAck), 2u);
}

// Degraded path: the path delay jumps while idle, so no probe ACK makes
// the smooth-RTT deadline — the recorder must show the timeout resume at
// the minimum window instead of Eq. 1.
TEST(ProbeLifecycle, LateAcksRecordProbeTimeoutAtFloor) {
  HostPair net;
  Telemetry tele;
  tele.attach(net.sim);
  tele.recorder().enable(65536);
  fault::FaultInjector inj{&net.sim, fault::FaultConfig{}};
  inj.attach(*net.ab);
  Rig f{net, gig_trim()};

  f.sender.write(200 * 1460);
  net.sim.run();
  const double cwnd_before_gap = f.sender.cwnd();
  ASSERT_GT(cwnd_before_gap, 2.0);

  inj.set_added_delay(sim::SimTime::millis(5));
  net.sim.schedule(sim::SimTime::millis(10), [&] { f.sender.write(50 * 1460); });
  net.sim.run();

  ASSERT_GE(tele.recorder().count(EventKind::kTrimProbeTimeout), 1u);
  const auto timeouts = tele.recorder().events(EventKind::kTrimProbeTimeout);
  EXPECT_DOUBLE_EQ(timeouts[0].a, 2.0);               // resume at the floor
  EXPECT_DOUBLE_EQ(timeouts[0].b, cwnd_before_gap);   // the cwnd it gave up
  EXPECT_EQ(tele.recorder().count(EventKind::kTrimResumeEq1), 0u);

  // The gap/enter/sent prefix is unchanged on the degraded path.
  const auto seq = probe_events(tele.recorder());
  ASSERT_GE(seq.size(), 4u);
  EXPECT_EQ(seq[0].kind, EventKind::kTrimGapDetected);
  EXPECT_EQ(seq[1].kind, EventKind::kTrimProbeEnter);
  EXPECT_EQ(seq[2].kind, EventKind::kTrimProbeSent);
  EXPECT_EQ(seq[3].kind, EventKind::kTrimProbeSent);
}

// Queue control: with a tiny K every congested ACK triggers an Eq. 3 cut;
// the event payload carries ep in (0, 1) and the histogram records it.
TEST(ProbeLifecycle, Eq3CutsRecordCongestionExtent) {
  HostPair net{1'000'000'000, sim::SimTime::micros(50)};
  Telemetry tele;
  tele.attach(net.sim);
  tele.recorder().enable(65536);

  auto trim = gig_trim();
  trim.k_override = sim::SimTime::micros(120);  // just above the base RTT
  Rig f{net, trim};

  f.sender.write(2000 * 1460);  // long train: the queue builds, RTT > K
  net.sim.run();

  const auto cuts = tele.recorder().events(EventKind::kTrimQueueCutEq3);
  ASSERT_FALSE(cuts.empty());
  double max_ep = 0.0;
  for (const auto& e : cuts) {
    EXPECT_GE(e.a, 0.0);   // ep = (RTT - K)/RTT; 0 exactly when RTT == K
    EXPECT_LT(e.a, 1.0);
    EXPECT_GE(e.b, 2.0);   // cwnd after the cut stays >= the floor
    max_ep = std::max(max_ep, e.a);
  }
  EXPECT_GT(max_ep, 0.0);  // the queue did push some RTT past K
  EXPECT_EQ(tele.core().eq3_ep->count,
            tele.recorder().count(EventKind::kTrimQueueCutEq3));
}

// No telemetry attached: the same scenario runs with every emit site
// degrading to a null-pointer test, and the simulation output matches the
// instrumented run exactly (byte-identical disabled path).
TEST(ProbeLifecycle, DisabledTelemetryIsByteIdentical) {
  auto run = [](bool instrument) {
    HostPair net;
    Telemetry tele;
    if (instrument) {
      tele.attach(net.sim);
      tele.recorder().enable(1024);
    }
    Rig f{net, gig_trim()};
    f.sender.write(200 * 1460);
    net.sim.run();
    net.sim.schedule(sim::SimTime::millis(10), [&] { f.sender.write(50 * 1460); });
    net.sim.run();
    return std::tuple{f.sender.cwnd(), f.receiver.delivered_bytes(),
                      net.sim.now().ns(), f.sender.stats().probe_rounds};
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace trim::obs
