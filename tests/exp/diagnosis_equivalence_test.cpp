// Lockstep equivalence for the diagnosis layer: one storm config run on
// {1, 4} shards must produce identical diagnosed episodes, identical span
// statistics (digest included), and identical event counts for every
// non-shard event kind. The *simulation* being identical is covered by
// conn_storm_test; here we pin down that the telemetry derived from it
// is too.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "exp/connection_storm_scenario.hpp"
#include "obs/diagnosis.hpp"
#include "obs/span_tracer.hpp"

namespace trim::exp {
namespace {

constexpr int kShardCounts[] = {1, 4};

// An RST-policy backlog storm: hot enough to saturate the tiny backlog
// (backlog_saturation episodes guaranteed) while still draining fully.
ConnectionStormConfig storm_config() {
  ConnectionStormConfig cfg;
  cfg.num_switches = 2;
  cfg.clients_per_switch = 4;
  cfg.connections_total = 120;
  cfg.arrival_rate_cps = 60000.0;
  cfg.request_bytes = 5 * 1460ull;
  cfg.backlog.depth = 2;
  cfg.backlog.overflow = tcp::ListenQueueConfig::OverflowPolicy::kRst;
  cfg.run_until = sim::SimTime::seconds(2.0);
  cfg.seed = 23;
  return cfg;
}

bool same_episode(const obs::DiagnosedEpisode& x,
                  const obs::DiagnosedEpisode& y) {
  return x.kind == y.kind && x.start == y.start && x.end == y.end &&
         x.flows == y.flows && x.events == y.events &&
         x.attribution == y.attribution && x.open == y.open &&
         x.sample_count == y.sample_count && x.sample_flows == y.sample_flows;
}

// Everything but the shard-execution kinds, which legitimately vary with
// the engine width (a serial run has no windows or mailbox flushes).
std::vector<std::uint64_t> portable_counts(const obs::EventCounts& counts) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < obs::kEventKindCount; ++i) {
    const auto kind = static_cast<obs::EventKind>(i);
    if (kind == obs::EventKind::kShardWindowAdvance ||
        kind == obs::EventKind::kShardMailboxFlush) {
      continue;
    }
    out.push_back(counts.by_kind[i]);
  }
  return out;
}

TEST(DiagnosisEquivalence, EpisodesSpansAndCountsMatchAcrossEngines) {
  // Route the trace files somewhere disposable; TRIM_TRACE also enables
  // the span tracer, whose stats ride in the telemetry snapshot.
  char tmpl[] = "/tmp/trim_diag_equiv_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  setenv("TRIM_TRACE", tmpl, 1);
  setenv("TRIM_DETECTORS", "1", 1);

  const ConnectionStormConfig base = storm_config();
  std::vector<obs::TelemetrySnapshot> snaps;
  for (const int shards : kShardCounts) {
    ConnectionStormConfig cfg = base;
    cfg.shards = shards;
    const auto r = run_connection_storm(cfg);
    EXPECT_EQ(r.stuck_connections, 0u) << shards << " shards";
    EXPECT_GT(r.backlog.overflow_rsts, 0u) << shards << " shards";
    snaps.push_back(r.telemetry);
  }
  unsetenv("TRIM_TRACE");
  unsetenv("TRIM_DETECTORS");

  // The storm must actually be diagnosed, with sane bounds.
  const auto& ref = snaps.front();
  std::size_t backlog_episodes = 0;
  for (const auto& e : ref.episodes) {
    EXPECT_LE(e.start, e.end);
    EXPECT_GT(e.events, 0u);
    EXPECT_GT(e.flows, 0u);
    if (e.kind == obs::DetectorKind::kBacklogSaturation) ++backlog_episodes;
  }
  ASSERT_GE(backlog_episodes, 1u);

  // Spans were traced (TRIM_TRACE was on) and completed.
  EXPECT_GT(ref.spans.total(), 0u);
  EXPECT_GT(ref.spans.completed, 0u);
  EXPECT_EQ(ref.spans.dropped, 0u);

  for (std::size_t i = 1; i < snaps.size(); ++i) {
    const std::string label = std::to_string(kShardCounts[i]) + " shards";
    const auto& snap = snaps[i];

    ASSERT_EQ(snap.episodes.size(), ref.episodes.size()) << label;
    for (std::size_t j = 0; j < ref.episodes.size(); ++j) {
      EXPECT_TRUE(same_episode(snap.episodes[j], ref.episodes[j]))
          << label << " episode " << j << " ("
          << obs::to_string(snap.episodes[j].kind) << ")";
    }

    EXPECT_EQ(snap.spans.digest, ref.spans.digest) << label;
    EXPECT_EQ(snap.spans.by_kind, ref.spans.by_kind) << label;
    EXPECT_EQ(snap.spans.completed, ref.spans.completed) << label;
    EXPECT_EQ(snap.spans.dropped, ref.spans.dropped) << label;

    EXPECT_EQ(portable_counts(snap.events), portable_counts(ref.events))
        << label;
  }

  // Best-effort scratch cleanup; TRACE file names carry a process-wide
  // sequence number, so glob by prefix instead of reconstructing them.
  std::string cmd = "rm -rf ";
  cmd += tmpl;
  std::system(cmd.c_str());
}

TEST(DiagnosisEquivalence, DetectorsOffLeavesResultsIdentical) {
  // TRIM_DETECTORS=0 must not change the simulation, only the episodes.
  ConnectionStormConfig cfg = storm_config();
  cfg.shards = 1;

  setenv("TRIM_DETECTORS", "1", 1);
  const auto with = run_connection_storm(cfg);
  setenv("TRIM_DETECTORS", "0", 1);
  const auto without = run_connection_storm(cfg);
  unsetenv("TRIM_DETECTORS");

  EXPECT_FALSE(with.telemetry.episodes.empty());
  EXPECT_TRUE(without.telemetry.episodes.empty());
  EXPECT_EQ(with.setup_latency_s, without.setup_latency_s);
  EXPECT_EQ(with.graceful_closes, without.graceful_closes);
  EXPECT_EQ(with.aborted_closes, without.aborted_closes);
  EXPECT_EQ(with.backlog.overflow_rsts, without.backlog.overflow_rsts);
  EXPECT_EQ(with.syn_retx, without.syn_retx);
  EXPECT_EQ(portable_counts(with.telemetry.events),
            portable_counts(without.telemetry.events));
}

}  // namespace
}  // namespace trim::exp
