#include "obs/diagnosis.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <unordered_map>
#include <unordered_set>

namespace trim::obs {

const char* to_string(DetectorKind kind) {
  switch (kind) {
    case DetectorKind::kRtoSync: return "rto_sync";
    case DetectorKind::kBacklogSaturation: return "backlog_saturation";
    case DetectorKind::kThroughputCollapse: return "throughput_collapse";
  }
  return "?";
}

void append_episode_json(std::string& out, const DiagnosedEpisode& e) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"kind\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                "\"flows\": %u, \"events\": %llu, \"attribution\": %.9g, "
                "\"open\": %s, \"sample_flows\": [",
                to_string(e.kind), e.start.to_seconds(), e.end.to_seconds(),
                e.flows, static_cast<unsigned long long>(e.events),
                e.attribution, e.open ? "true" : "false");
  out += buf;
  for (std::uint32_t i = 0; i < e.sample_count; ++i) {
    if (i != 0) out += ", ";
    std::snprintf(buf, sizeof buf, "%u", e.sample_flows[i]);
    out += buf;
  }
  out += "]}";
}

namespace {

// A detector's rule: an episode opens once the trailing `window` holds
// >= min_flows distinct flows and >= min_events triggers, and closes after
// `quiet` without a trigger.
struct Thresholds {
  DetectorKind kind;
  std::uint64_t triggers;  // the event kinds that count as triggers
  std::uint32_t min_flows;
  std::uint32_t min_events;
  sim::SimTime window;
  sim::SimTime quiet;
};

// The three detectors, in output order (docs/OBSERVABILITY.md).
constexpr Thresholds kDetectors[] = {
    {DetectorKind::kRtoSync, kind_bit(EventKind::kRtoFired), 3, 3,
     sim::SimTime::millis(100), sim::SimTime::millis(300)},
    // A backlog drop's subject is the rejecting listener, so one "flow"
    // suffices and min_events gates on volume instead.
    {DetectorKind::kBacklogSaturation, kind_bit(EventKind::kBacklogDrop), 1, 4,
     sim::SimTime::millis(50), sim::SimTime::millis(200)},
    {DetectorKind::kThroughputCollapse,
     kind_bit(EventKind::kRtoFired) | kind_bit(EventKind::kFastRetransmit) |
         kind_bit(EventKind::kTrimQueueCutEq3),
     3, 3, sim::SimTime::millis(100), sim::SimTime::millis(300)},
};

// throughput_collapse counts a flow as lost on an inherited window when its
// last Eq. 1 resume came at most this long before its first loss.
constexpr sim::SimTime kInheritLookback = sim::SimTime::millis(200);

constexpr bool thresholds_consistent() {
  std::uint64_t read = kind_bit(EventKind::kTrimResumeEq1);
  for (const Thresholds& rule : kDetectors) {
    // The quiet gap that closes an episode outlasts the window, so nothing
    // from an episode is still in the window when the next trigger comes.
    if (rule.quiet < rule.window) return false;
    read |= rule.triggers;
  }
  return read == kDiagnosisKinds;
}
static_assert(thresholds_consistent());

using ResumeTimes = std::unordered_map<std::uint32_t, sim::SimTime>;

struct Trigger {
  sim::SimTime at;
  std::uint32_t flow = 0;
  bool rst = false;  // backlog drops: answered with RST (b == 1)
};

// One detector over the sorted stream. Between episodes it slides a window
// of recent triggers; the trigger that meets the thresholds opens an
// episode holding the whole window, so `start` is the first event of the
// burst, not the one that tripped it.
class Detector {
 public:
  Detector(const Thresholds& rule, const ResumeTimes& resumes)
      : rule_{rule}, resumes_{resumes} {}

  bool triggered_by(EventKind kind) const {
    return (rule_.triggers & kind_bit(kind)) != 0;
  }

  void on_trigger(const Trigger& t) {
    if (open_ && t.at - last_ > rule_.quiet) close(/*still_open=*/false);
    last_ = t.at;
    if (open_) {
      implicate(t);
      return;
    }
    window_.push_back(t);
    ++window_flows_[t.flow];
    while (window_.front().at < t.at - rule_.window) {
      const auto it = window_flows_.find(window_.front().flow);
      if (--it->second == 0) window_flows_.erase(it);
      window_.pop_front();
    }
    if (window_flows_.size() < rule_.min_flows ||
        window_.size() < rule_.min_events) {
      return;
    }
    open_ = true;
    current_ = DiagnosedEpisode{};
    current_.kind = rule_.kind;
    current_.start = window_.front().at;
    flows_.clear();
    rsts_ = 0;
    inherited_ = 0;
    for (const Trigger& w : window_) implicate(w);
    window_.clear();
    window_flows_.clear();
  }

  // Closes the episode still open at the end of the stream, then appends
  // this detector's episodes to `out`.
  void finish(sim::SimTime at, std::vector<DiagnosedEpisode>& out) {
    if (open_) close(/*still_open=*/at - last_ <= rule_.quiet);
    out.insert(out.end(), episodes_.begin(), episodes_.end());
  }

 private:
  void implicate(const Trigger& t) {
    current_.end = t.at;
    ++current_.events;
    if (t.rst) ++rsts_;
    if (!flows_.insert(t.flow).second) return;
    ++current_.flows;
    if (current_.sample_count < current_.sample_flows.size()) {
      current_.sample_flows[current_.sample_count++] = t.flow;
    }
    if (rule_.kind == DetectorKind::kThroughputCollapse) {
      const auto r = resumes_.find(t.flow);
      if (r != resumes_.end() && r->second <= t.at &&
          t.at - r->second <= kInheritLookback) {
        ++inherited_;
      }
    }
  }

  void close(bool still_open) {
    const auto events = static_cast<double>(current_.events);
    const auto flows = static_cast<double>(current_.flows);
    switch (rule_.kind) {
      case DetectorKind::kRtoSync:  // fires per flow; >1 = repeated backoff
        current_.attribution = events / flows;
        break;
      case DetectorKind::kBacklogSaturation:  // share answered with RST
        current_.attribution = static_cast<double>(rsts_) / events;
        break;
      case DetectorKind::kThroughputCollapse:  // share on inherited windows
        current_.attribution = static_cast<double>(inherited_) / flows;
        break;
    }
    current_.open = still_open;
    episodes_.push_back(current_);
    open_ = false;
  }

  const Thresholds& rule_;
  const ResumeTimes& resumes_;
  std::deque<Trigger> window_;  // the triggers of the trailing window
  std::unordered_map<std::uint32_t, std::uint32_t> window_flows_;  // per flow
  bool open_ = false;
  sim::SimTime last_;  // latest trigger
  DiagnosedEpisode current_;
  std::unordered_set<std::uint32_t> flows_;  // the open episode's flows
  std::uint64_t rsts_ = 0;
  std::uint32_t inherited_ = 0;
  std::vector<DiagnosedEpisode> episodes_;
};

}  // namespace

std::vector<DiagnosedEpisode> diagnose_episodes(
    std::vector<RecordedEvent> events, sim::SimTime finalize_at) {
  std::sort(events.begin(), events.end(),
            [](const RecordedEvent& x, const RecordedEvent& y) {
              if (x.at != y.at) return x.at < y.at;
              if (x.kind != y.kind) return x.kind < y.kind;
              if (x.subject != y.subject) return x.subject < y.subject;
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });
  ResumeTimes resumes;  // each flow's last Eq. 1 resume so far
  std::vector<Detector> detectors;
  for (const Thresholds& rule : kDetectors) detectors.emplace_back(rule, resumes);
  for (const RecordedEvent& e : events) {
    if (e.kind == EventKind::kTrimResumeEq1) {
      resumes[e.subject] = e.at;
      continue;
    }
    const Trigger t{e.at, e.subject, e.b != 0.0};
    for (Detector& d : detectors) {
      if (d.triggered_by(e.kind)) d.on_trigger(t);
    }
  }
  std::vector<DiagnosedEpisode> episodes;
  for (Detector& d : detectors) d.finish(finalize_at, episodes);
  return episodes;
}

}  // namespace trim::obs
