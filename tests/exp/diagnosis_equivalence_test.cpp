// Lockstep equivalence for the diagnosis layer: one storm config run on
// {1, 4} shards must produce identical diagnosed episodes, identical span
// statistics (digest included), and identical event counts for every
// non-shard event kind. The *simulation* being identical is covered by
// conn_storm_test; here we pin down that the telemetry derived from it
// is too. The storm is never partitioned, so all of its events land on
// shard 0; a fixed event script spread over every shard checks that
// World pools the shards' staged streams before diagnosing.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "exp/connection_storm_scenario.hpp"
#include "exp/experiment.hpp"
#include "obs/diagnosis.hpp"
#include "obs/span_tracer.hpp"
#include "obs/telemetry.hpp"

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

  std::filesystem::remove_all(tmpl);
}

TEST(DiagnosisEquivalence, TracingOffLeavesResultsIdentical) {
  // TRIM_TRACE must not change the simulation or its diagnosis, only
  // whether spans are assembled and a trace file is written.
  ConnectionStormConfig cfg = storm_config();
  cfg.shards = 1;

  char tmpl[] = "/tmp/trim_diag_trace_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  setenv("TRIM_TRACE", tmpl, 1);
  const auto with = run_connection_storm(cfg);
  unsetenv("TRIM_TRACE");
  const auto without = run_connection_storm(cfg);
  std::filesystem::remove_all(tmpl);

  EXPECT_GT(with.telemetry.spans.total(), 0u);
  EXPECT_EQ(without.telemetry.spans.total(), 0u);
  EXPECT_FALSE(with.telemetry.episodes.empty());
  ASSERT_EQ(with.telemetry.episodes.size(), without.telemetry.episodes.size());
  for (std::size_t j = 0; j < with.telemetry.episodes.size(); ++j) {
    EXPECT_TRUE(same_episode(with.telemetry.episodes[j],
                             without.telemetry.episodes[j]))
        << "episode " << j;
  }
  EXPECT_EQ(with.setup_latency_s, without.setup_latency_s);
  EXPECT_EQ(with.graceful_closes, without.graceful_closes);
  EXPECT_EQ(with.aborted_closes, without.aborted_closes);
  EXPECT_EQ(with.backlog.overflow_rsts, without.backlog.overflow_rsts);
  EXPECT_EQ(with.syn_retx, without.syn_retx);
  EXPECT_EQ(portable_counts(with.telemetry.events),
            portable_counts(without.telemetry.events));
}

// One fixed diagnosis-event script: a backlog burst on listener 42, Eq. 1
// resumes on the even flows, then a synchronized loss burst on flows 1-8
// (RTO fires plus fast retransmits or Eq. 3 cuts) that trips rto_sync and
// throughput_collapse.
std::vector<obs::RecordedEvent> diagnosis_script() {
  using obs::EventKind;
  const auto at = [](int us) { return sim::SimTime::micros(us); };
  std::vector<obs::RecordedEvent> script;
  for (int i = 0; i < 6; ++i) {
    script.push_back({at(500'000 + 5'000 * i), EventKind::kBacklogDrop, 42,
                      3.0, i % 2 == 0 ? 1.0 : 0.0});
  }
  for (std::uint32_t f = 2; f <= 8; f += 2) {
    script.push_back({at(900'000 + 1'000 * static_cast<int>(f)),
                      EventKind::kTrimResumeEq1, f, 6.0, 0.0});
  }
  for (std::uint32_t f = 1; f <= 8; ++f) {
    const int t = 1'000'000 + 2'000 * static_cast<int>(f);
    script.push_back({at(t), EventKind::kRtoFired, f, 0.0, 0.0});
    script.push_back({at(t + 1'000),
                      f % 3 == 0 ? EventKind::kTrimQueueCutEq3
                                 : EventKind::kFastRetransmit,
                      f, 0.4, 5.0});
  }
  return script;
}

// Emits the script through obs::emit, event i on shard i % shards, and
// returns the episodes World diagnoses from the pooled shard stages.
std::vector<obs::DiagnosedEpisode> diagnose_script(int shards) {
  World world{shards};
  int i = 0;
  for (const obs::RecordedEvent& e : diagnosis_script()) {
    sim::Simulator& sim = world.engine.shard(i++ % shards);
    sim.schedule_at(e.at, [&sim, e] {
      obs::emit(&sim, e.kind, e.subject, e.a, e.b);
    });
  }
  world.run();
  return world.telemetry_snapshot().episodes;
}

TEST(DiagnosisEquivalence, ShardStagesPoolIntoOneDiagnosis) {
  const auto serial = diagnose_script(1);
  const auto pooled = diagnose_script(4);

  std::size_t by_kind[3] = {};
  for (const auto& e : serial) ++by_kind[static_cast<std::size_t>(e.kind)];
  EXPECT_EQ(by_kind[static_cast<std::size_t>(obs::DetectorKind::kRtoSync)], 1u);
  EXPECT_EQ(by_kind[static_cast<std::size_t>(
                obs::DetectorKind::kBacklogSaturation)],
            1u);
  EXPECT_EQ(by_kind[static_cast<std::size_t>(
                obs::DetectorKind::kThroughputCollapse)],
            1u);
  for (const auto& e : serial) {
    // Half the rejections were RSTs, and the even flows' resumes (staged
    // on other shards than their losses at width 4) implicate half the
    // collapsing flows.
    if (e.kind != obs::DetectorKind::kRtoSync) {
      EXPECT_DOUBLE_EQ(e.attribution, 0.5) << obs::to_string(e.kind);
    }
  }

  ASSERT_EQ(pooled.size(), serial.size());
  for (std::size_t j = 0; j < serial.size(); ++j) {
    EXPECT_TRUE(same_episode(pooled[j], serial[j])) << "episode " << j;
  }
}

}  // namespace
}  // namespace trim::exp
