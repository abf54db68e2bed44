// Connection-storm matrix — the full SYN/FIN/RST lifecycle under storm
// profiles that stress each resource in turn: a clean baseline, a starved
// listen backlog under both overflow policies, an exhausted ephemeral-port
// range, and handshakes over a control-packet-lossy bottleneck.
//
// Reports the setup-latency CDF (SYN sent -> ESTABLISHED), backlog
// drop/RST counts, port-exhaustion episodes, and SYN/FIN retransmission
// totals per profile. The scenario's own drain invariant is the pass/fail
// line: every opened connection must reach CLOSED (or be refused) by the
// deadline, with zero invariant violations — exits non-zero otherwise.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "exp/connection_storm_scenario.hpp"
#include "exp/experiment.hpp"
#include "exp/parallel_runner.hpp"
#include "obs/diagnosis.hpp"
#include "obs/metrics.hpp"
#include "stats/table.hpp"

using namespace trim;

namespace {

struct StormProfile {
  std::string name;
  exp::ConnectionStormConfig cfg;
};

exp::ConnectionStormConfig base_config(int index) {
  exp::ConnectionStormConfig cfg;
  cfg.connections_total = exp::quick_mode() ? 150 : 600;
  cfg.arrival_rate_cps = 4000.0;
  cfg.request_bytes = 10 * 1460ull;
  cfg.run_until = sim::SimTime::seconds(6.0);
  cfg.seed = exp::run_seed(0x5702, index);
  // Storm-tuned client: fast SYN retries with a bounded give-up horizon,
  // so refused connections resolve (in or aborted) within the window.
  cfg.min_rto = sim::SimTime::millis(50);
  cfg.max_rto = sim::SimTime::millis(400);
  cfg.lifecycle.retx_rto_initial = sim::SimTime::millis(50);
  cfg.lifecycle.retx_rto_max = sim::SimTime::millis(400);
  cfg.lifecycle.time_wait = sim::SimTime::millis(100);
  return cfg;
}

std::vector<StormProfile> storm_matrix() {
  std::vector<StormProfile> profiles;
  int i = 0;

  profiles.push_back({"clean", base_config(i++)});

  {
    auto cfg = base_config(i++);
    // SYN_RCVD dwell is about one edge RTT, so overflowing a 4-deep
    // backlog needs arrivals packed well inside that window.
    cfg.arrival_rate_cps = 120000.0;
    cfg.backlog.depth = 4;
    cfg.backlog.overflow = tcp::ListenQueueConfig::OverflowPolicy::kDrop;
    profiles.push_back({"backlog_drop", cfg});
  }
  {
    auto cfg = base_config(i++);
    cfg.arrival_rate_cps = 120000.0;
    cfg.backlog.depth = 4;
    cfg.backlog.overflow = tcp::ListenQueueConfig::OverflowPolicy::kRst;
    profiles.push_back({"backlog_rst", cfg});
  }
  {
    auto cfg = base_config(i++);
    cfg.num_switches = 1;
    cfg.clients_per_switch = 2;  // two hot clients burn through the range
    cfg.ports.port_lo = 40000;
    cfg.ports.port_hi = 40031;  // 32 ports each
    profiles.push_back({"port_exhaustion", cfg});
  }
  {
    auto cfg = base_config(i++);
    cfg.bottleneck_fault.seed = 77;
    cfg.bottleneck_fault.ctrl_loss_probability = 0.2;  // SYN/FIN/RST only
    profiles.push_back({"ctrl_loss", cfg});
  }
  {
    auto cfg = base_config(i++);
    cfg.bottleneck_fault.seed = 88;
    cfg.bottleneck_fault.loss_probability = 0.02;  // data and control alike
    profiles.push_back({"bernoulli_loss", cfg});
  }
  return profiles;
}

std::size_t episode_count(const obs::TelemetrySnapshot& tele,
                          obs::DetectorKind kind) {
  std::size_t n = 0;
  for (const auto& e : tele.episodes) {
    if (e.kind == kind) ++n;
  }
  return n;
}

}  // namespace

int main() {
  exp::print_banner(
      "Connection storm — lifecycle resilience under SYN floods",
      "robustness companion: backlog overflow, port exhaustion, lossy handshakes");

  const auto profiles = storm_matrix();
  std::vector<exp::ConnectionStormConfig> cfgs;
  cfgs.reserve(profiles.size());
  for (const auto& p : profiles) cfgs.push_back(p.cfg);

  const auto t0 = std::chrono::steady_clock::now();
  const auto [results, failures] =
      exp::run_parallel_collect(cfgs, exp::run_connection_storm);
  const double batch_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  exp::report_job_failures("bench_conn_storm", failures);

  obs::RunReport report{"conn_storm"};
  report.add_perf("conn_storm_batch", static_cast<double>(cfgs.size()) / batch_wall,
                  {{"runs", static_cast<double>(cfgs.size())},
                   {"wall_seconds", batch_wall}});
  bench::merge_telemetry(report, results);

  std::uint64_t total_violations = 0;
  std::uint64_t total_stuck = 0;
  stats::Table table{{"profile", "attempted", "established", "setup p50/p99 (ms)",
                      "backlog drop/rst", "port dry", "syn+fin retx", "rst",
                      "diagnosed"}};
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const auto& name = profiles[i].name;
    const auto& r = results[i];
    total_violations += r.invariant_violations;
    total_stuck += r.stuck_connections;

    // Scenario-recorded setup-latency histogram (ms), summarized by the
    // shared percentile helper instead of per-bench CDF math.
    const auto* setup_h = obs::find_histogram(r.telemetry.metrics, "conn.setup_ms");
    const obs::Percentiles setup =
        setup_h != nullptr ? obs::percentiles(*setup_h) : obs::Percentiles{};

    const std::size_t ep_rto =
        episode_count(r.telemetry, obs::DetectorKind::kRtoSync);
    const std::size_t ep_backlog =
        episode_count(r.telemetry, obs::DetectorKind::kBacklogSaturation);
    const std::size_t ep_collapse =
        episode_count(r.telemetry, obs::DetectorKind::kThroughputCollapse);

    table.add_row(
        {name, stats::Table::integer(static_cast<long long>(r.connections_attempted)),
         stats::Table::integer(static_cast<long long>(r.connections_established)),
         bench::fmt("%.2f", setup.p50) + " / " + bench::fmt("%.2f", setup.p99),
         std::to_string(r.backlog.overflow_drops) + "/" +
             std::to_string(r.backlog.overflow_rsts),
         stats::Table::integer(static_cast<long long>(r.ports.exhaustion_episodes)),
         stats::Table::integer(static_cast<long long>(r.syn_retx + r.fin_retx)),
         stats::Table::integer(static_cast<long long>(r.rst_sent)),
         stats::Table::integer(
             static_cast<long long>(ep_rto + ep_backlog + ep_collapse))});

    const auto& ev = r.telemetry.events;
    report.add_row(
        name,
        {{"connections_attempted", static_cast<double>(r.connections_attempted)},
         {"connections_established",
          static_cast<double>(r.connections_established)},
         {"graceful_closes", static_cast<double>(r.graceful_closes)},
         {"aborted_closes", static_cast<double>(r.aborted_closes)},
         {"no_port_skips", static_cast<double>(r.no_port_skips)},
         {"stuck_connections", static_cast<double>(r.stuck_connections)},
         {"setup_ms_p50", setup.p50},
         {"setup_ms_p90", setup.p90},
         {"setup_ms_p99", setup.p99},
         {"setup_ms_max", setup.max},
         {"backlog_overflow_drops",
          static_cast<double>(r.backlog.overflow_drops)},
         {"backlog_overflow_rsts",
          static_cast<double>(r.backlog.overflow_rsts)},
         {"backlog_peak_occupancy",
          static_cast<double>(r.backlog.peak_occupancy)},
         {"port_exhaustion_episodes",
          static_cast<double>(r.ports.exhaustion_episodes)},
         {"port_timewait_reclaims",
          static_cast<double>(r.ports.timewait_reclaims)},
         {"syn_retx", static_cast<double>(r.syn_retx)},
         {"fin_retx", static_cast<double>(r.fin_retx)},
         {"rst_sent", static_cast<double>(r.rst_sent)},
         {"challenge_acks", static_cast<double>(r.challenge_acks)},
         {"ctrl_fault_losses",
          static_cast<double>(r.bottleneck_faults.ctrl_losses)},
         {"invariant_checkpoints",
          static_cast<double>(r.invariant_checkpoints)},
         {"invariant_violations",
          static_cast<double>(r.invariant_violations)},
         {"ev_syn_retx", static_cast<double>(ev[obs::EventKind::kSynRetx])},
         {"ev_backlog_drop",
          static_cast<double>(ev[obs::EventKind::kBacklogDrop])},
         {"ev_rst", static_cast<double>(ev[obs::EventKind::kRstSent])},
         {"episodes_rto_sync", static_cast<double>(ep_rto)},
         {"episodes_backlog_saturation", static_cast<double>(ep_backlog)},
         {"episodes_throughput_collapse", static_cast<double>(ep_collapse)},
         {"episodes_diagnosed",
          static_cast<double>(ep_rto + ep_backlog + ep_collapse)}});
  }
  table.print();
  std::printf("\n");

  std::printf(
      "expected shape: the clean storm establishes everything with zero\n"
      "retransmissions; tiny backlogs degrade (drop -> SYN retries, rst ->\n"
      "fast aborts) without wedging; a dry port range skips arrivals instead\n"
      "of deadlocking; lossy control planes only stretch the setup CDF.\n");
  bench::finish_report(report);

  if (!failures.empty() || total_violations > 0 || total_stuck > 0) {
    std::fprintf(stderr,
                 "bench_conn_storm: FAILED (%zu job failures, %llu invariant "
                 "violations, %llu stuck connections)\n",
                 failures.size(),
                 static_cast<unsigned long long>(total_violations),
                 static_cast<unsigned long long>(total_stuck));
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
