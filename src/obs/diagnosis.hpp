// Online collapse diagnosis: streaming detectors that consume flight-
// recorder events at run time and condense them into *diagnosed
// episodes* — bounded intervals of simulated time where a known
// pathological pattern from the paper's problem statement was active:
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
// Detectors observe, never participate, and are always on: obs::Telemetry
// stages the events in DetectorSet::kind_mask() at run time and
// diagnose_episodes() replays them at snapshot, so simulation outputs
// never depend on diagnosis. The detectors are allocation free — fixed
// rings and open-addressing tables sized at construction.
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

// One diagnosed interval. POD; merging telemetry across sweep jobs or
// shards concatenates episode lists (each simulator diagnoses its own
// event stream).
struct DiagnosedEpisode {
  DetectorKind kind = DetectorKind::kRtoSync;
  sim::SimTime start;  // earliest implicated event
  sim::SimTime end;    // last implicated event seen before the quiet gap
  std::uint32_t flows = 0;     // distinct implicated flows (saturating)
  std::uint64_t events = 0;    // implicated events inside the interval
  double attribution = 0.0;    // kind-specific, see to_json / docs
  bool open = false;           // true when the run ended mid-episode
  std::array<std::uint32_t, 8> sample_flows{};  // first distinct flows
  std::uint32_t sample_count = 0;
};

void append_episode_json(std::string& out, const DiagnosedEpisode& e);

namespace detail {

// Fixed-capacity open-addressing set of flow ids (linear probing, no
// deletion). Inserts past capacity are refused so the hot path never
// allocates; `flows` saturates instead of lying.
class FlowSet {
 public:
  explicit FlowSet(std::size_t capacity_pow2);
  // True if newly inserted, false if present or full.
  bool insert(std::uint32_t flow);
  bool contains(std::uint32_t flow) const;
  std::uint32_t size() const { return size_; }
  void clear();

 private:
  std::size_t slot(std::uint32_t flow) const;
  std::vector<std::uint32_t> slots_;  // flow id + 1; 0 = empty
  std::uint32_t size_ = 0;
};

// Fixed-capacity open-addressing map flow -> SimTime (last-write wins,
// no deletion, inserts refused when full).
class FlowTimeMap {
 public:
  explicit FlowTimeMap(std::size_t capacity_pow2);
  void put(std::uint32_t flow, sim::SimTime at);
  bool get(std::uint32_t flow, sim::SimTime& out) const;

 private:
  struct Cell {
    std::uint32_t key = 0;  // flow id + 1; 0 = empty
    sim::SimTime at;
  };
  std::vector<Cell> cells_;
  std::uint32_t size_ = 0;
};

// Shared sliding-window episode machinery: a ring of recent trigger
// events plus the currently-open episode. Subclasses decide which events
// count and what `attribution` means.
class WindowedDetector {
 public:
  // Trigger: >= min_flows distinct flows AND >= min_events triggers
  // inside the trailing `window`; close after `quiet` without a trigger.
  WindowedDetector(DetectorKind kind, std::uint32_t min_flows,
                   std::uint32_t min_events, sim::SimTime window,
                   sim::SimTime quiet);
  virtual ~WindowedDetector() = default;

  void finalize(sim::SimTime at);
  const std::vector<DiagnosedEpisode>& episodes() const { return episodes_; }
  std::uint64_t episodes_dropped() const { return episodes_dropped_; }

 protected:
  // A qualifying event; opens/extends/closes episodes as needed.
  // `weight` feeds the kind-specific attribution accumulator.
  void observe_trigger(sim::SimTime at, std::uint32_t flow, double weight);
  // Called when `flow` is first implicated in the open episode; the
  // returned value is added to the attribution numerator.
  virtual double implicate(std::uint32_t /*flow*/, sim::SimTime /*at*/) {
    return 0.0;
  }
  // Turns the raw accumulators into the published attribution.
  virtual double finish_attribution(const DiagnosedEpisode& e,
                                    double weight_sum,
                                    double implicated_sum) const = 0;

 private:
  struct Trigger {
    sim::SimTime at;
    std::uint32_t flow = 0;
    double weight = 0.0;
  };

  void open_episode(sim::SimTime at);
  void close_episode(bool still_open);
  std::uint32_t distinct_in_window(sim::SimTime now) const;

  DetectorKind kind_;
  std::uint32_t min_flows_;
  std::uint32_t min_events_;
  sim::SimTime window_;
  sim::SimTime quiet_;

  static constexpr std::size_t kRingCap = 256;
  std::array<Trigger, kRingCap> ring_{};
  std::size_t ring_head_ = 0;
  std::size_t ring_size_ = 0;

  bool in_episode_ = false;
  DiagnosedEpisode current_{};
  sim::SimTime last_trigger_;
  double weight_sum_ = 0.0;
  double implicated_sum_ = 0.0;
  FlowSet episode_flows_;

  static constexpr std::size_t kMaxEpisodes = 1024;
  std::vector<DiagnosedEpisode> episodes_;
  std::uint64_t episodes_dropped_ = 0;
};

}  // namespace detail

// Many flows firing retransmission timeouts inside one short window.
// attribution = RTO fires per implicated flow (>1 means repeated
// synchronized backoff, the classic incast death spiral).
class RtoSyncDetector final : public detail::WindowedDetector {
 public:
  struct Config {
    std::uint32_t min_flows = 3;
    sim::SimTime window = sim::SimTime::millis(100);
    sim::SimTime quiet = sim::SimTime::millis(300);
  };
  RtoSyncDetector();  // default Config
  explicit RtoSyncDetector(Config cfg);
  void on_event(const RecordedEvent& e);
  static std::uint64_t kind_mask();

 private:
  double finish_attribution(const DiagnosedEpisode& e, double weight_sum,
                            double implicated_sum) const override;
};

// Bursts of listen-backlog rejections. Flow identity is the backlog
// subject (listener), so min_flows is 1; min_drops gates on volume
// instead. attribution = fraction of rejections answered with RST
// (policy b == 1) rather than silently dropped.
class BacklogSaturationDetector final : public detail::WindowedDetector {
 public:
  struct Config {
    std::uint32_t min_drops = 4;
    sim::SimTime window = sim::SimTime::millis(50);
    sim::SimTime quiet = sim::SimTime::millis(200);
  };
  BacklogSaturationDetector();  // default Config
  explicit BacklogSaturationDetector(Config cfg);
  void on_event(const RecordedEvent& e);
  static std::uint64_t kind_mask();

 private:
  double finish_attribution(const DiagnosedEpisode& e, double weight_sum,
                            double implicated_sum) const override;
};

// Many flows hitting loss signals (RTO fire, fast retransmit, Eq. 3
// queue cut) together. attribution = fraction of implicated flows whose
// last Eq. 1 window resume happened within `inherit_lookback` of their
// first loss — i.e. collapse attributable to resuming an inherited
// (stale-RTT-scaled) window, the TSE failure mode the paper tunes away.
class ThroughputCollapseDetector final : public detail::WindowedDetector {
 public:
  struct Config {
    std::uint32_t min_flows = 3;
    sim::SimTime window = sim::SimTime::millis(100);
    sim::SimTime quiet = sim::SimTime::millis(300);
    sim::SimTime inherit_lookback = sim::SimTime::millis(200);
  };
  ThroughputCollapseDetector();  // default Config
  explicit ThroughputCollapseDetector(Config cfg);
  void on_event(const RecordedEvent& e);
  static std::uint64_t kind_mask();

 private:
  double implicate(std::uint32_t flow, sim::SimTime at) override;
  double finish_attribution(const DiagnosedEpisode& e, double weight_sum,
                            double implicated_sum) const override;
  sim::SimTime inherit_lookback_;
  detail::FlowTimeMap last_resume_;
};

// The three detectors behind one dispatch surface; diagnose_episodes()
// streams a sorted event list through a fresh one.
class DetectorSet {
 public:
  DetectorSet();
  static std::uint64_t kind_mask();

  void on_event(const RecordedEvent& e);
  void finalize(sim::SimTime at);

  // All diagnosed episodes, detector-major (rto_sync first), each
  // detector's list in diagnosis order.
  std::vector<DiagnosedEpisode> episodes() const;
  std::uint64_t episodes_dropped() const;

  RtoSyncDetector& rto_sync() { return rto_sync_; }
  BacklogSaturationDetector& backlog() { return backlog_; }
  ThroughputCollapseDetector& collapse() { return collapse_; }

 private:
  RtoSyncDetector rto_sync_;
  BacklogSaturationDetector backlog_;
  ThroughputCollapseDetector collapse_;
};

// The diagnosis entry point: sorts `events` by content — (time, kind,
// subject, a, b), a total order independent of arrival order — and
// streams them through a fresh DetectorSet, finalizing at `finalize_at`.
// Telemetry stages detector-masked events at run time (O(1) per event)
// and calls this at snapshot; because the staged multiset is identical
// across TRIM_SHARDS widths, so are the episodes.
std::vector<DiagnosedEpisode> diagnose_episodes(
    std::vector<RecordedEvent> events, sim::SimTime finalize_at);

}  // namespace trim::obs
