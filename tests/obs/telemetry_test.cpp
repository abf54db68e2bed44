// Telemetry bundle attachment, what the TRIM_TRACE env knob adds to a
// bundle, and the pluggable log sink the obs warnings route through.
#include <gtest/gtest.h>

#include <cstdlib>

#include "exp/experiment.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/telemetry.hpp"
#include "sim/logging.hpp"

namespace trim::obs {
namespace {

TEST(Telemetry, BareSimulatorHasNoBundleAndEmitIsNoop) {
  sim::Simulator sim;
  EXPECT_EQ(telemetry_of(&sim), nullptr);
  EXPECT_EQ(telemetry_of(nullptr), nullptr);
  emit(&sim, EventKind::kRtoFired, 1, 2.0, 3.0);  // must not crash
}

TEST(Telemetry, AttachRoutesEmitsIntoTheRecorder) {
  sim::Simulator sim;
  Telemetry tele;
  tele.attach(sim);
  ASSERT_EQ(telemetry_of(&sim), &tele);

  emit(&sim, EventKind::kFastRetransmit, 9, 100.0, 8.0);
  EXPECT_EQ(tele.recorder().count(EventKind::kFastRetransmit), 1u);
  // Counts-only tier: nothing retained without an enabled ring.
  EXPECT_EQ(tele.recorder().size(), 0u);

  tele.recorder().enable(16);
  emit(&sim, EventKind::kFastRetransmit, 9, 101.0, 8.0);
  ASSERT_EQ(tele.recorder().size(), 1u);
  EXPECT_DOUBLE_EQ(tele.recorder().event(0).a, 101.0);
}

TEST(Telemetry, PreregisteredCoreHandlesExist) {
  Telemetry tele;
  ASSERT_NE(tele.core().segments_sent, nullptr);
  ASSERT_NE(tele.core().acks_processed, nullptr);
  ASSERT_NE(tele.core().queue_drops, nullptr);
  ASSERT_NE(tele.core().probe_rtt_us, nullptr);
  ASSERT_NE(tele.core().eq3_ep, nullptr);
  tele.core().segments_sent->inc(3);
  const auto snap = tele.snapshot();
  const auto it = snap.metrics.counters.find("tcp.segments_sent");
  ASSERT_NE(it, snap.metrics.counters.end());
  EXPECT_EQ(it->second.value, 3u);
}

TEST(Telemetry, EnvKnobControlsRingCapacity) {
  // TRIM_TRACE is the only knob: attached under it, a bundle gets the span
  // tracer and a 65,536-event ring; without it, neither.
  ::setenv("TRIM_TRACE", "/nonexistent/dir", 1);
  sim::Simulator traced_sim;
  Telemetry traced;
  traced.attach(traced_sim);
  ::unsetenv("TRIM_TRACE");
  EXPECT_NE(traced.tracer(), nullptr);
  EXPECT_TRUE(traced.recorder().ring_enabled());
  EXPECT_EQ(traced.recorder().capacity(), 65536u);
  EXPECT_EQ(Telemetry::kTraceRingEvents, 65536u);

  sim::Simulator sim;
  Telemetry plain;
  plain.attach(sim);
  EXPECT_EQ(plain.tracer(), nullptr);
  EXPECT_FALSE(plain.recorder().ring_enabled());
  EXPECT_EQ(plain.recorder().capacity(), 0u);
}

TEST(Telemetry, WorldAttachesItsBundle) {
  exp::World world;
  EXPECT_EQ(telemetry_of(&world.simulator), &world.telemetry);
  const auto snap = world.telemetry_snapshot();
  EXPECT_FALSE(snap.metrics.counters.empty());  // core handles registered
}

TEST(LogSink, CaptureSinkInterceptsAndRestores) {
  {
    sim::CaptureLogSink capture;
    sim::warn(1.5, "queue %s overflowed", "sw0");
    ASSERT_EQ(capture.records().size(), 1u);
    EXPECT_DOUBLE_EQ(capture.records()[0].sim_time_s, 1.5);
    EXPECT_TRUE(capture.contains("queue sw0 overflowed"));
    capture.clear();
    EXPECT_TRUE(capture.records().empty());
  }
  // Out of scope: the default stderr sink is back (nothing to assert on
  // stderr, but installing/removing again must round-trip cleanly).
  EXPECT_EQ(sim::set_log_sink(nullptr), nullptr);
}

TEST(LogSink, ObsWarningsRouteThroughTheSink) {
  sim::CaptureLogSink capture;
  ::setenv("BENCH_JSON_DIR", "/nonexistent/dir", 1);
  RunReport report{"sink_probe"};
  EXPECT_EQ(report.write(), "");
  ::unsetenv("BENCH_JSON_DIR");
  EXPECT_TRUE(capture.contains("run report"));
}

}  // namespace
}  // namespace trim::obs
