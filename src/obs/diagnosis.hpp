// Collapse diagnosis: one offline pass that condenses a run's flight-
// recorder events into *diagnosed episodes* — bounded intervals of
// simulated time where a known pathological pattern from the paper's
// problem statement was active:
//
//   rto_sync             many flows firing RTOs near-simultaneously (the
//                        synchronized-timeout incast signature, Fig. 1)
//   backlog_saturation   a listener's SYN backlog rejecting bursts of
//                        connection attempts (storm admission collapse)
//   throughput_collapse  many flows hitting loss signals together, with
//                        TSE-style attribution: the fraction of implicated
//                        flows that had just resumed an inherited window
//                        (Eq. 1 resume shortly before their first loss)
//
// Diagnosis observes, never participates, and is always on: obs::Telemetry
// stages the events in kDiagnosisKinds at run time and exp::World runs
// diagnose_episodes() over the pooled stages at snapshot, so simulation
// outputs never depend on diagnosis. The pass has no caps: every
// implicated flow and event of an episode counts.
//
// Episodes land in TelemetrySnapshot::episodes and serialize into the
// run report's "episodes" section (see run_report.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/events.hpp"

namespace trim::obs {

enum class DetectorKind : std::uint8_t {
  kRtoSync,
  kBacklogSaturation,
  kThroughputCollapse,
};

const char* to_string(DetectorKind kind);

// One diagnosed interval. POD; merging telemetry across sweep jobs
// concatenates episode lists (each run diagnoses its own event stream).
struct DiagnosedEpisode {
  DetectorKind kind = DetectorKind::kRtoSync;
  sim::SimTime start;  // earliest implicated event
  sim::SimTime end;    // last implicated event seen before the quiet gap
  std::uint32_t flows = 0;     // distinct implicated flows
  std::uint64_t events = 0;    // implicated events inside the interval
  double attribution = 0.0;    // kind-specific, see to_json / docs
  bool open = false;           // true when the run ended mid-episode
  std::array<std::uint32_t, 8> sample_flows{};  // first distinct flows
  std::uint32_t sample_count = 0;
};

void append_episode_json(std::string& out, const DiagnosedEpisode& e);

// The event kinds diagnosis reads, and so the kinds Telemetry stages: the
// detectors' loss and backlog triggers plus the Eq. 1 resumes behind
// throughput_collapse's attribution.
inline constexpr std::uint64_t kDiagnosisKinds =
    kind_bit(EventKind::kRtoFired) | kind_bit(EventKind::kFastRetransmit) |
    kind_bit(EventKind::kTrimQueueCutEq3) | kind_bit(EventKind::kBacklogDrop) |
    kind_bit(EventKind::kTrimResumeEq1);

// The diagnosis pass: sorts `events` by content — (time, kind, subject,
// a, b), a total order independent of arrival order — and streams them
// once through the three detectors, finalizing at `finalize_at`. Episodes
// come out detector-major (rto_sync, backlog_saturation,
// throughput_collapse), each detector's in diagnosis order. Because the
// pooled staged multiset is identical across TRIM_SHARDS widths, so are
// the episodes.
std::vector<DiagnosedEpisode> diagnose_episodes(
    std::vector<RecordedEvent> events, sim::SimTime finalize_at);

}  // namespace trim::obs
