// Fig. 4 — the motivation experiment on TCP Reno: 5 servers' persistent
// connections carry 200 small responses each, then all burst a long train
// at 0.5 s with the inherited (huge) window. Shows (a) bottleneck
// throughput collapse with TCP timeouts and (b) the window evolution of
// connection 5.
#include <cstdio>

#include "bench_util.hpp"
#include "exp/impairment_scenario.hpp"
#include "stats/table.hpp"

using namespace trim;

int main() {
  exp::print_banner("Fig. 4 — TCP throughput collapse from window inheritance",
                    "Sec. II-B-1, Fig. 4");

  exp::ImpairmentConfig cfg;
  cfg.protocol = tcp::Protocol::kReno;
  cfg.seed = exp::run_seed(0x0401, 0);
  const auto r = run_impairment(cfg);

  obs::RunReport report{"fig04_motivation"};
  report.set_telemetry(r.telemetry);
  report.add_scalar("total_drops", static_cast<double>(r.total_drops));
  report.add_scalar("last_lpt_completion_s", r.last_lpt_completion.to_seconds());
  report.add_series("fig04a_throughput", r.throughput_mbps, "mbps");
  report.add_series("fig04b_cwnd_conn5", r.cwnd_last_conn, "segments");
  report.add_series("fig04_queue", r.queue_trace, "packets");
  bench::finish_report(report);

  bench::print_series("(a) bottleneck throughput (10 ms bins):",
                      r.throughput_mbps, 30, " Mbps");
  std::printf("\n");
  bench::print_series("(b) congestion window of connection 5 (segments):",
                      r.cwnd_last_conn, 30);

  std::printf("\n");
  stats::Table table{{"metric", "paper", "measured"}};
  std::uint64_t timeouts = 0;
  for (auto t : r.timeouts_per_conn) timeouts += t;
  std::string inherited;
  for (double w : r.cwnd_at_lpt_start) {
    inherited += stats::Table::num(w, 0) + " ";
  }
  table.add_row({"inherited cwnd per conn (pkts)", "> 850 each", inherited});
  table.add_row({"total TCP timeouts", "7 (1+2+2+2)", stats::Table::integer(timeouts)});
  table.add_row({"switch buffer overflow drops", "many", stats::Table::integer(r.total_drops)});
  table.add_row({"max queue (pkts / 100 buffer)", "100 (full)",
                 stats::Table::num(r.queue_trace.max_value(), 0)});
  table.add_row({"all LPTs finished by", "~0.9 s (after 2 RTOs)",
                 bench::fmt("%.3f s", r.last_lpt_completion.to_seconds())});
  table.print();
  std::printf("shape check: timeouts>0 %s, inherited windows huge %s\n",
              timeouts > 0 ? "OK" : "MISMATCH",
              r.cwnd_at_lpt_start[0] > 500 ? "OK" : "MISMATCH");
  return 0;
}
