// Resilience matrix — Reno / DCTCP / TRIM goodput and timeout counts under
// adverse network conditions (link flaps, random loss, reordering, jitter),
// with the simulation invariant checker live on every run.
//
// This is the robustness counterpart of the figure benches: the paper tunes
// TCP's aggressive behavior (small RTO, probe-based cwnd resumption), and
// this bench demonstrates that the tuning holds up — and that the simulator
// stays self-consistent — when the network misbehaves. Exits non-zero if
// any run reports an invariant violation.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "exp/experiment.hpp"
#include "exp/parallel_runner.hpp"
#include "exp/resilience_scenario.hpp"
#include "obs/diagnosis.hpp"
#include "obs/metrics.hpp"
#include "stats/table.hpp"

using namespace trim;

namespace {

struct FaultProfile {
  std::string name;
  fault::FaultConfig cfg;
  // Churn profiles run every message on a fresh connection (full
  // SYN/FIN lifecycle through a small shared listen backlog) instead of
  // one persistent flow per server.
  bool churn = false;
};

// The fault matrix: a clean baseline plus the four adverse profiles the
// acceptance criteria call for. Bursty (Gilbert-Elliott) loss rides along
// as a fifth adverse column.
std::vector<FaultProfile> fault_matrix() {
  std::vector<FaultProfile> profiles;

  profiles.push_back({"clean", {}});

  {
    fault::FaultConfig f;
    f.seed = 11;
    // Two outages inside the transfer window (trains start at 0.05 s);
    // the first is long enough to force RTO backoff.
    f.flaps.push_back({sim::SimTime::seconds(0.10), sim::SimTime::seconds(0.40)});
    f.flaps.push_back({sim::SimTime::seconds(0.70), sim::SimTime::seconds(0.80)});
    profiles.push_back({"link_flap", f});
  }
  {
    fault::FaultConfig f;
    f.seed = 22;
    f.loss_probability = 0.01;  // 1% i.i.d. loss on the bottleneck
    profiles.push_back({"bernoulli_loss", f});
  }
  {
    fault::FaultConfig f;
    f.seed = 33;
    f.gilbert.p_good_to_bad = 0.002;
    f.gilbert.p_bad_to_good = 0.05;
    f.gilbert.loss_bad = 0.3;  // bursty: ~30% loss while the chain is bad
    profiles.push_back({"gilbert_burst", f});
  }
  {
    fault::FaultConfig f;
    f.seed = 44;
    f.reorder_probability = 0.02;
    f.reorder_extra_max = sim::SimTime::micros(500);  // several packet times
    profiles.push_back({"reorder", f});
  }
  {
    fault::FaultConfig f;
    f.seed = 55;
    f.jitter_max = sim::SimTime::micros(200);
    profiles.push_back({"jitter", f});
  }
  // Connection churn: the short-connection regime, clean and with
  // control-packet loss hammering the handshakes themselves.
  {
    FaultProfile p;
    p.name = "churn";
    p.churn = true;
    profiles.push_back(p);
  }
  {
    FaultProfile p;
    p.name = "churn_ctrl_loss";
    p.churn = true;
    p.cfg.seed = 66;
    p.cfg.ctrl_loss_probability = 0.1;  // SYN/FIN/RST only
    profiles.push_back(p);
  }
  return profiles;
}

}  // namespace

int main() {
  exp::print_banner(
      "Resilience — Reno/DCTCP/TRIM under adverse networks",
      "robustness companion to Figs. 5/7 (many-to-one HTTP, faulty bottleneck)");

  const auto profiles = fault_matrix();
  const std::vector<tcp::Protocol> protocols = {
      tcp::Protocol::kReno, tcp::Protocol::kDctcp, tcp::Protocol::kTrim};

  // One config per (profile, protocol); fanned across REPRO_JOBS workers.
  // Every run carries the fault profile on the bottleneck link and keeps
  // the invariant checker watching all senders and injectors.
  std::vector<exp::ResilienceConfig> cfgs;
  for (const auto& profile : profiles) {
    for (auto protocol : protocols) {
      exp::ResilienceConfig cfg;
      cfg.protocol = protocol;
      cfg.seed = exp::run_seed(0xFA17, static_cast<int>(cfgs.size()));
      cfg.bottleneck_fault = profile.cfg;
      if (profile.churn) {
        cfg.churn = true;
        cfg.churn_backlog.depth = 4;  // small enough to overflow under churn
        // Short TIME_WAIT and a bounded backoff so the serial
        // per-message cadence fits the run window.
        cfg.lifecycle.time_wait = sim::SimTime::millis(10);
        cfg.min_rto = sim::SimTime::millis(50);
        cfg.lifecycle.retx_rto_initial = sim::SimTime::millis(50);
        cfg.lifecycle.retx_rto_max = sim::SimTime::millis(400);
      }
      if (exp::quick_mode()) {
        cfg.messages_per_server = 8;
        cfg.run_until = sim::SimTime::seconds(1.5);
      }
      cfgs.push_back(cfg);
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  const auto [results, failures] =
      exp::run_parallel_collect(cfgs, exp::run_resilience);
  const double batch_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  exp::report_job_failures("bench_resilience", failures);

  obs::RunReport report{"resilience"};
  report.add_perf("resilience_batch", static_cast<double>(cfgs.size()) / batch_wall,
                  {{"runs", static_cast<double>(cfgs.size())},
                   {"wall_seconds", batch_wall}});
  bench::merge_telemetry(report, results);
  for (const auto& r : results) {
    for (const auto& fs : r.flow_summaries) report.add_flow(fs);
  }

  std::uint64_t total_violations = 0;
  std::size_t next = 0;
  for (const auto& profile : profiles) {
    std::printf("fault profile: %s\n", profile.name.c_str());
    stats::Table table{{"protocol", "goodput (Mbps)", "timeouts", "completed",
                        "queue drops", "fault drops", "inv checks"}};
    for (auto protocol : protocols) {
      const auto& r = results[next++];
      total_violations += r.invariant_violations;
      table.add_row(
          {tcp::to_string(protocol), stats::Table::num(r.goodput_mbps, 1),
           stats::Table::integer(static_cast<long long>(r.total_timeouts)),
           std::to_string(r.messages_completed) + "/" +
               std::to_string(r.messages_total),
           stats::Table::integer(static_cast<long long>(r.queue_drops)),
           stats::Table::integer(
               static_cast<long long>(r.bottleneck_faults.injected_drops())),
           stats::Table::integer(
               static_cast<long long>(r.invariant_checkpoints))});
      // Flight-recorder event counts ride along so the fault profiles are
      // auditable from the JSON alone: how many losses/reorders/etc. were
      // actually injected and how the transport reacted (probes, RTO fires).
      const auto& ev = r.telemetry.events;
      const auto* setup_h =
          obs::find_histogram(r.telemetry.metrics, "conn.setup_ms");
      const obs::Percentiles setup =
          setup_h != nullptr ? obs::percentiles(*setup_h) : obs::Percentiles{};
      report.add_row(
          profile.name + "/" + tcp::to_string(protocol),
          {{"goodput_mbps", r.goodput_mbps},
           {"timeouts", static_cast<double>(r.total_timeouts)},
           {"messages_completed", static_cast<double>(r.messages_completed)},
           {"messages_total", static_cast<double>(r.messages_total)},
           {"queue_drops", static_cast<double>(r.queue_drops)},
           {"fault_drops",
            static_cast<double>(r.bottleneck_faults.injected_drops())},
           {"invariant_checkpoints",
            static_cast<double>(r.invariant_checkpoints)},
           {"invariant_violations",
            static_cast<double>(r.invariant_violations)},
           {"ev_fault_loss",
            static_cast<double>(ev[obs::EventKind::kFaultLoss])},
           {"ev_fault_reorder",
            static_cast<double>(ev[obs::EventKind::kFaultReorder])},
           {"ev_fault_link_down",
            static_cast<double>(ev[obs::EventKind::kFaultLinkDown])},
           {"ev_rto_fired",
            static_cast<double>(ev[obs::EventKind::kRtoFired])},
           {"ev_fast_retransmit",
            static_cast<double>(ev[obs::EventKind::kFastRetransmit])},
           {"ev_probe_enter",
            static_cast<double>(ev[obs::EventKind::kTrimProbeEnter])},
           {"ev_queue_drop_episodes",
            static_cast<double>(ev[obs::EventKind::kQueueDropEpisodeStart])},
           // Lifecycle counts — nonzero only on the churn profiles.
           {"ev_syn_retx", static_cast<double>(ev[obs::EventKind::kSynRetx])},
           {"ev_backlog_drop",
            static_cast<double>(ev[obs::EventKind::kBacklogDrop])},
           {"ev_rst", static_cast<double>(ev[obs::EventKind::kRstSent])},
           {"connections_opened",
            static_cast<double>(r.connections_opened)},
           {"graceful_closes", static_cast<double>(r.graceful_closes)},
           {"aborted_closes", static_cast<double>(r.aborted_closes)},
           {"backlog_overflow_drops",
            static_cast<double>(r.churn_backlog.overflow_drops)},
           // Churn setup latency from the scenario-recorded histogram
           // (ms), via the shared percentile helper.
           {"setup_ms_p50", setup.p50},
           {"setup_ms_p99", setup.p99},
           {"setup_ms_max", setup.max},
           {"episodes_diagnosed",
            static_cast<double>(r.telemetry.episodes.size())}});
    }
    table.print();
    std::printf("\n");
  }

  std::printf(
      "expected shape: TRIM matches or beats Reno/DCTCP goodput on every\n"
      "profile and times out less under loss (probe-based resumption keeps\n"
      "cwnd >= 2 instead of collapsing to slow start).\n");
  bench::finish_report(report);

  if (!failures.empty() || total_violations > 0) {
    std::fprintf(stderr,
                 "bench_resilience: FAILED (%zu job failures, %llu invariant "
                 "violations)\n",
                 failures.size(),
                 static_cast<unsigned long long>(total_violations));
    return 1;
  }
  if (exp::invariants_enabled()) {
    std::printf("invariant checker: enabled, 0 violations across %zu runs.\n",
                cfgs.size());
  } else {
    std::printf(
        "invariant checker: disabled (set TRIM_CHECK_INVARIANTS=1 to enable "
        "in release builds).\n");
  }
  return 0;
}
