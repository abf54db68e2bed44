// Telemetry bundle attachment, the TRIM_TELEMETRY env knob, the CSV
// export gate, and the pluggable log sink the obs warnings route through.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

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
  bool found = false;
  for (const auto& c : snap.metrics.counters) {
    if (c.name == "tcp.segments_sent") {
      found = true;
      EXPECT_EQ(c.value, 3u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Telemetry, EnvKnobControlsRingCapacity) {
  ::unsetenv("TRIM_TELEMETRY");
  EXPECT_EQ(env_recorder_capacity(), 0u);
  ::setenv("TRIM_TELEMETRY", "0", 1);
  EXPECT_EQ(env_recorder_capacity(), 0u);
  ::setenv("TRIM_TELEMETRY", "1", 1);
  EXPECT_EQ(env_recorder_capacity(), 8192u);
  ::setenv("TRIM_TELEMETRY", "512", 1);
  EXPECT_EQ(env_recorder_capacity(), 512u);

  sim::Simulator sim;
  Telemetry tele;
  tele.attach(sim);
  EXPECT_TRUE(tele.recorder().ring_enabled());
  EXPECT_EQ(tele.recorder().capacity(), 512u);
  ::unsetenv("TRIM_TELEMETRY");
}

TEST(Telemetry, WorldAttachesItsBundle) {
  exp::World world;
  EXPECT_EQ(telemetry_of(&world.simulator), &world.telemetry);
  const auto snap = world.telemetry_snapshot();
  EXPECT_FALSE(snap.metrics.counters.empty());  // core handles registered
}

TEST(MetricsCsv, GatedByEnvAndWritesTypedRows) {
  ::unsetenv("REPRO_CSV_DIR");
  MetricsRegistry reg;
  reg.counter("tcp.segments_sent")->inc(5);
  EXPECT_EQ(maybe_write_metrics_csv("unit", reg.snapshot()), "");

  char tmpl[] = "/tmp/trim_csv_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  ::setenv("REPRO_CSV_DIR", tmpl, 1);
  reg.gauge("queue.peak")->set(7.0);
  const std::string path = maybe_write_metrics_csv("unit", reg.snapshot());
  ::unsetenv("REPRO_CSV_DIR");
  ASSERT_FALSE(path.empty());
  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("counter"), std::string::npos);
  EXPECT_NE(buf.str().find("tcp.segments_sent"), std::string::npos);
  EXPECT_NE(buf.str().find("gauge"), std::string::npos);
  std::remove(path.c_str());
  std::remove(tmpl);
}

TEST(LogSink, CaptureSinkInterceptsAndRestores) {
  {
    sim::CaptureLogSink capture;
    sim::log_message(sim::LogLevel::kWarn, 1.5, "queue %s overflowed", "sw0");
    ASSERT_EQ(capture.records().size(), 1u);
    EXPECT_EQ(capture.records()[0].level, sim::LogLevel::kWarn);
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
