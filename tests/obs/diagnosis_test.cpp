// Collapse-diagnosis unit tests: synthetic event streams with known
// episodes through diagnose_episodes(), read one detector kind at a time,
// plus the pass's order independence and its lack of caps on flows,
// window triggers and resumes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "obs/diagnosis.hpp"

namespace trim::obs {
namespace {

RecordedEvent ev(double t, EventKind kind, std::uint32_t subject,
                 double a = 0.0, double b = 0.0) {
  return RecordedEvent{sim::SimTime::seconds(t), kind, subject, a, b};
}

// The episodes of one detector kind that diagnose_episodes() finds in
// `events`, finalizing at `finalize_s`, in diagnosis order.
std::vector<DiagnosedEpisode> diagnosed(DetectorKind kind,
                                        std::vector<RecordedEvent> events,
                                        double finalize_s) {
  std::vector<DiagnosedEpisode> out;
  for (const auto& e : diagnose_episodes(std::move(events),
                                         sim::SimTime::seconds(finalize_s))) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

// ---- rto_sync ----

TEST(RtoSyncDetector, ThreeFlowsInWindowOpenOneBoundedEpisode) {
  // min_flows 3, window 100 ms, quiet 300 ms; finalized past the quiet gap.
  const auto d = diagnosed(DetectorKind::kRtoSync,
                           {ev(1.000, EventKind::kRtoFired, 1),
                            ev(1.010, EventKind::kRtoFired, 2),
                            ev(1.020, EventKind::kRtoFired, 3)},
                           1.5);

  ASSERT_EQ(d.size(), 1u);
  const DiagnosedEpisode& e = d.front();
  EXPECT_EQ(e.kind, DetectorKind::kRtoSync);
  // The episode starts at the first event of the burst, not the one that
  // tripped the threshold.
  EXPECT_DOUBLE_EQ(e.start.to_seconds(), 1.000);
  EXPECT_DOUBLE_EQ(e.end.to_seconds(), 1.020);
  EXPECT_EQ(e.flows, 3u);
  EXPECT_EQ(e.events, 3u);
  EXPECT_DOUBLE_EQ(e.attribution, 1.0);  // one fire per flow
  EXPECT_FALSE(e.open);
  ASSERT_EQ(e.sample_count, 3u);
}

TEST(RtoSyncDetector, TwoFlowsNeverTrigger) {
  std::vector<RecordedEvent> events;
  for (int burst = 0; burst < 5; ++burst) {
    const double t = 1.0 + burst;
    events.push_back(ev(t, EventKind::kRtoFired, 1));
    events.push_back(ev(t + 0.01, EventKind::kRtoFired, 2));
  }
  EXPECT_TRUE(diagnosed(DetectorKind::kRtoSync, events, 10.0).empty());
}

TEST(RtoSyncDetector, RepeatedFiresRaiseAttributionAboveOne) {
  const auto d = diagnosed(DetectorKind::kRtoSync,
                           {ev(1.000, EventKind::kRtoFired, 1),
                            ev(1.010, EventKind::kRtoFired, 2),
                            ev(1.020, EventKind::kRtoFired, 3),
                            // second backoff round
                            ev(1.050, EventKind::kRtoFired, 1),
                            ev(1.060, EventKind::kRtoFired, 2)},
                           2.0);

  ASSERT_EQ(d.size(), 1u);
  const DiagnosedEpisode& e = d.front();
  EXPECT_EQ(e.flows, 3u);
  EXPECT_EQ(e.events, 5u);
  EXPECT_DOUBLE_EQ(e.end.to_seconds(), 1.060);
  EXPECT_DOUBLE_EQ(e.attribution, 5.0 / 3.0);
}

TEST(RtoSyncDetector, QuietGapSplitsBurstsIntoSeparateEpisodes) {
  std::vector<RecordedEvent> events;
  for (std::uint32_t f = 1; f <= 3; ++f) {
    events.push_back(ev(1.0 + 0.01 * f, EventKind::kRtoFired, f));
  }
  // 0.97 s of silence, then a second synchronized burst.
  for (std::uint32_t f = 4; f <= 6; ++f) {
    events.push_back(ev(2.0 + 0.01 * f, EventKind::kRtoFired, f));
  }
  const auto d = diagnosed(DetectorKind::kRtoSync, events, 3.0);

  ASSERT_EQ(d.size(), 2u);
  EXPECT_DOUBLE_EQ(d[0].start.to_seconds(), 1.01);
  EXPECT_DOUBLE_EQ(d[0].end.to_seconds(), 1.03);
  EXPECT_FALSE(d[0].open);
  EXPECT_DOUBLE_EQ(d[1].start.to_seconds(), 2.04);
  EXPECT_DOUBLE_EQ(d[1].end.to_seconds(), 2.06);
  EXPECT_EQ(d[1].flows, 3u);
}

TEST(RtoSyncDetector, RunEndingMidEpisodeMarksItOpen) {
  const auto d = diagnosed(DetectorKind::kRtoSync,
                           {ev(1.000, EventKind::kRtoFired, 1),
                            ev(1.010, EventKind::kRtoFired, 2),
                            ev(1.020, EventKind::kRtoFired, 3)},
                           1.1);  // inside the quiet window
  ASSERT_EQ(d.size(), 1u);
  EXPECT_TRUE(d.front().open);
}

// ---- backlog_saturation ----

TEST(BacklogSaturationDetector, VolumeGateAndRstFractionAttribution) {
  // min_drops 4, window 50 ms, quiet 200 ms. One listener (subject 42);
  // alternate RST-policy (b=1) and silent drops (b=0).
  const auto d = diagnosed(DetectorKind::kBacklogSaturation,
                           {ev(1.000, EventKind::kBacklogDrop, 42, 2.0, 1.0),
                            ev(1.010, EventKind::kBacklogDrop, 42, 2.0, 0.0),
                            ev(1.020, EventKind::kBacklogDrop, 42, 2.0, 1.0),
                            ev(1.030, EventKind::kBacklogDrop, 42, 2.0, 0.0)},
                           2.0);

  ASSERT_EQ(d.size(), 1u);
  const DiagnosedEpisode& e = d.front();
  EXPECT_EQ(e.kind, DetectorKind::kBacklogSaturation);
  EXPECT_DOUBLE_EQ(e.start.to_seconds(), 1.000);
  EXPECT_DOUBLE_EQ(e.end.to_seconds(), 1.030);
  EXPECT_EQ(e.flows, 1u);  // flow identity is the listener
  EXPECT_EQ(e.events, 4u);
  EXPECT_DOUBLE_EQ(e.attribution, 0.5);  // half answered with RST
  EXPECT_FALSE(e.open);
}

TEST(BacklogSaturationDetector, BelowMinDropsStaysQuiet) {
  EXPECT_TRUE(diagnosed(DetectorKind::kBacklogSaturation,
                        {ev(1.000, EventKind::kBacklogDrop, 42, 2.0, 1.0),
                         ev(1.010, EventKind::kBacklogDrop, 42, 2.0, 1.0),
                         ev(1.020, EventKind::kBacklogDrop, 42, 2.0, 1.0)},
                        2.0)
                  .empty());
}

TEST(BacklogSaturationDetector, SpreadOutDropsNeverFillTheWindow) {
  // Four drops, but 100 ms apart — never 4 inside one 50 ms window.
  std::vector<RecordedEvent> events;
  for (int i = 0; i < 4; ++i) {
    events.push_back(ev(1.0 + 0.1 * i, EventKind::kBacklogDrop, 42, 2.0, 1.0));
  }
  EXPECT_TRUE(diagnosed(DetectorKind::kBacklogSaturation, events, 2.0).empty());
}

// ---- throughput_collapse ----

TEST(ThroughputCollapseDetector, InheritedWindowAttributionFromResumes) {
  // min_flows 3, lookback 200 ms. Flows 1 and 2 resume an Eq. 1 window
  // just before the loss burst; flow 3 collapses without a recent resume.
  const auto d = diagnosed(DetectorKind::kThroughputCollapse,
                           {ev(0.950, EventKind::kTrimResumeEq1, 1, 6.0),
                            ev(0.960, EventKind::kTrimResumeEq1, 2, 8.0),
                            ev(1.000, EventKind::kRtoFired, 1),
                            ev(1.010, EventKind::kFastRetransmit, 2),
                            ev(1.020, EventKind::kTrimQueueCutEq3, 3, 0.4, 5.0)},
                           2.0);

  ASSERT_EQ(d.size(), 1u);
  const DiagnosedEpisode& e = d.front();
  EXPECT_EQ(e.kind, DetectorKind::kThroughputCollapse);
  EXPECT_DOUBLE_EQ(e.start.to_seconds(), 1.000);
  EXPECT_DOUBLE_EQ(e.end.to_seconds(), 1.020);
  EXPECT_EQ(e.flows, 3u);
  EXPECT_EQ(e.events, 3u);
  EXPECT_DOUBLE_EQ(e.attribution, 2.0 / 3.0);
}

TEST(ThroughputCollapseDetector, StaleResumeDoesNotImplicate) {
  // The resume is 0.5 s before the loss — beyond the 200 ms lookback.
  const auto d = diagnosed(DetectorKind::kThroughputCollapse,
                           {ev(0.500, EventKind::kTrimResumeEq1, 1, 6.0),
                            ev(1.000, EventKind::kRtoFired, 1),
                            ev(1.010, EventKind::kRtoFired, 2),
                            ev(1.020, EventKind::kRtoFired, 3)},
                           2.0);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_DOUBLE_EQ(d.front().attribution, 0.0);
}

TEST(ThroughputCollapseDetector, ResumesAloneAreNotLossSignals) {
  std::vector<RecordedEvent> events;
  for (std::uint32_t f = 1; f <= 6; ++f) {
    events.push_back(ev(1.0 + 0.01 * f, EventKind::kTrimResumeEq1, f, 6.0));
  }
  EXPECT_TRUE(
      diagnosed(DetectorKind::kThroughputCollapse, events, 2.0).empty());
}

// ---- diagnose_episodes ----

std::vector<RecordedEvent> mixed_pathology() {
  std::vector<RecordedEvent> events;
  // A backlog burst on listener 42 ...
  for (int i = 0; i < 5; ++i) {
    events.push_back(
        ev(0.50 + 0.005 * i, EventKind::kBacklogDrop, 42, 3.0, 1.0));
  }
  // ... then resumes followed by a synchronized loss burst (trips both
  // rto_sync and throughput_collapse).
  events.push_back(ev(0.950, EventKind::kTrimResumeEq1, 1, 6.0));
  events.push_back(ev(0.960, EventKind::kTrimResumeEq1, 2, 8.0));
  for (std::uint32_t f = 1; f <= 4; ++f) {
    events.push_back(ev(1.0 + 0.01 * f, EventKind::kRtoFired, f));
  }
  return events;
}

bool same_episode(const DiagnosedEpisode& x, const DiagnosedEpisode& y) {
  return x.kind == y.kind && x.start == y.start && x.end == y.end &&
         x.flows == y.flows && x.events == y.events &&
         x.attribution == y.attribution && x.open == y.open &&
         x.sample_count == y.sample_count && x.sample_flows == y.sample_flows;
}

TEST(DiagnoseEpisodes, ArrivalOrderDoesNotMatter) {
  const auto finalize_at = sim::SimTime::seconds(2.0);
  std::vector<RecordedEvent> in_order = mixed_pathology();

  // Reversed, and rotated: the orders a sharded run could stage in.
  std::vector<RecordedEvent> reversed{in_order.rbegin(), in_order.rend()};
  std::vector<RecordedEvent> rotated = in_order;
  std::rotate(rotated.begin(), rotated.begin() + 4, rotated.end());

  const auto base = diagnose_episodes(in_order, finalize_at);
  const auto rev = diagnose_episodes(reversed, finalize_at);
  const auto rot = diagnose_episodes(rotated, finalize_at);

  ASSERT_EQ(base.size(), 3u);  // backlog + rto_sync + collapse
  ASSERT_EQ(rev.size(), base.size());
  ASSERT_EQ(rot.size(), base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_TRUE(same_episode(base[i], rev[i])) << "episode " << i;
    EXPECT_TRUE(same_episode(base[i], rot[i])) << "episode " << i;
  }
}

TEST(DiagnoseEpisodes, ReportsAllThreeDetectorKinds) {
  const auto episodes =
      diagnose_episodes(mixed_pathology(), sim::SimTime::seconds(2.0));
  std::array<std::size_t, 3> by_kind{};
  for (const auto& e : episodes) {
    ++by_kind[static_cast<std::size_t>(e.kind)];
    EXPECT_LE(e.start, e.end);
    EXPECT_FALSE(e.open);
  }
  EXPECT_EQ(by_kind[static_cast<std::size_t>(DetectorKind::kRtoSync)], 1u);
  EXPECT_EQ(
      by_kind[static_cast<std::size_t>(DetectorKind::kBacklogSaturation)], 1u);
  EXPECT_EQ(
      by_kind[static_cast<std::size_t>(DetectorKind::kThroughputCollapse)],
      1u);
}

TEST(DiagnoseEpisodes, EmptyStreamDiagnosesNothing) {
  EXPECT_TRUE(diagnose_episodes({}, sim::SimTime::seconds(1.0)).empty());
}

TEST(DiagnosedEpisode, JsonCarriesKindBoundsAndAttribution) {
  const auto episodes =
      diagnose_episodes(mixed_pathology(), sim::SimTime::seconds(2.0));
  ASSERT_FALSE(episodes.empty());
  std::string out;
  append_episode_json(out, episodes.front());
  EXPECT_NE(out.find("\"kind\": \"rto_sync\""), std::string::npos);
  EXPECT_NE(out.find("\"start\": "), std::string::npos);
  EXPECT_NE(out.find("\"attribution\": "), std::string::npos);
  EXPECT_NE(out.find("\"sample_flows\": ["), std::string::npos);
}

// ---- no caps: every flow, trigger and resume counts ----

TEST(DiagnoseEpisodes, EveryFlowOfALargeEpisodeCounts) {
  // 600 flows fire one RTO each inside a 60 ms burst; the upper half
  // resumed an Eq. 1 window 50 ms before it.
  std::vector<RecordedEvent> events;
  for (std::uint32_t f = 0; f < 600; ++f) {
    if (f >= 300) events.push_back(ev(0.950, EventKind::kTrimResumeEq1, f, 6.0));
    events.push_back(ev(1.0 + 0.0001 * f, EventKind::kRtoFired, f));
  }
  const auto episodes = diagnose_episodes(events, sim::SimTime::seconds(2.0));

  ASSERT_EQ(episodes.size(), 2u);  // rto_sync + throughput_collapse
  for (const auto& e : episodes) {
    EXPECT_EQ(e.flows, 600u) << to_string(e.kind);
    EXPECT_EQ(e.events, 600u) << to_string(e.kind);
    ASSERT_EQ(e.sample_count, 8u);
    for (std::uint32_t i = 0; i < 8; ++i) EXPECT_EQ(e.sample_flows[i], i);
  }
  EXPECT_EQ(episodes[0].kind, DetectorKind::kRtoSync);
  EXPECT_DOUBLE_EQ(episodes[0].attribution, 1.0);  // one fire per flow
  EXPECT_EQ(episodes[1].kind, DetectorKind::kThroughputCollapse);
  EXPECT_DOUBLE_EQ(episodes[1].attribution, 0.5);  // the resumed half
}

TEST(DiagnoseEpisodes, OpeningWindowKeepsEveryTrigger) {
  // Flow 1 fires 300 times inside 90 ms before flows 2 and 3 complete the
  // rto_sync threshold: the episode starts at flow 1's first fire and
  // holds all 302.
  std::vector<RecordedEvent> events;
  for (int i = 0; i < 300; ++i) {
    events.push_back(ev(1.0 + 0.0003 * i, EventKind::kRtoFired, 1, i));
  }
  events.push_back(ev(1.090, EventKind::kRtoFired, 2));
  events.push_back(ev(1.095, EventKind::kRtoFired, 3));
  const auto d = diagnosed(DetectorKind::kRtoSync, events, 2.0);

  ASSERT_EQ(d.size(), 1u);
  EXPECT_DOUBLE_EQ(d[0].start.to_seconds(), 1.000);
  EXPECT_DOUBLE_EQ(d[0].end.to_seconds(), 1.095);
  EXPECT_EQ(d[0].events, 302u);
  EXPECT_EQ(d[0].flows, 3u);
  EXPECT_DOUBLE_EQ(d[0].attribution, 302.0 / 3.0);
}

TEST(DiagnoseEpisodes, EveryResumedFlowIsAttributedInAnyLossOrder) {
  // 3,000 flows resume an Eq. 1 window over 30 ms; each then loses 50 to
  // 110 ms after its resume, in flow order or in a fixed permutation.
  constexpr std::uint32_t kFlows = 3000;
  for (const bool permuted : {false, true}) {
    std::vector<RecordedEvent> events;
    for (std::uint32_t i = 0; i < kFlows; ++i) {
      events.push_back(RecordedEvent{sim::SimTime::micros(1'000'000 + 10 * i),
                                     EventKind::kTrimResumeEq1, i, 6.0, 0.0});
      const std::uint32_t loser = permuted ? (i * 7919u) % kFlows : i;
      events.push_back(RecordedEvent{sim::SimTime::micros(1'080'000 + 10 * i),
                                     EventKind::kFastRetransmit, loser, 0.0,
                                     0.0});
    }
    const auto d = diagnosed(DetectorKind::kThroughputCollapse, events, 2.0);

    ASSERT_EQ(d.size(), 1u) << "permuted " << permuted;
    EXPECT_EQ(d[0].flows, kFlows) << "permuted " << permuted;
    EXPECT_EQ(d[0].events, kFlows) << "permuted " << permuted;
    EXPECT_DOUBLE_EQ(d[0].attribution, 1.0) << "permuted " << permuted;
  }
}

}  // namespace
}  // namespace trim::obs
