// Fig. 6 — the Fig. 4 experiment re-run with TCP-TRIM: one throughput
// spike, no timeouts, queue never past ~20 packets, windows probed down at
// the train boundary and tuned from the saved value.
#include <cstdio>

#include "bench_util.hpp"
#include "exp/impairment_scenario.hpp"
#include "stats/table.hpp"

using namespace trim;

int main() {
  exp::print_banner("Fig. 6 — TCP-TRIM removes the impairment", "Sec. IV-A-1, Fig. 6");

  exp::ImpairmentConfig cfg;
  cfg.protocol = tcp::Protocol::kTrim;
  cfg.seed = exp::run_seed(0x0401, 0);  // same seed as the Fig. 4 run
  const auto r = run_impairment(cfg);

  obs::RunReport report{"fig06_trim_impairment"};
  report.set_telemetry(r.telemetry);
  report.add_scalar("total_drops", static_cast<double>(r.total_drops));
  report.add_scalar("last_lpt_completion_s", r.last_lpt_completion.to_seconds());
  report.add_series("fig06a_throughput", r.throughput_mbps, "mbps");
  report.add_series("fig06b_cwnd_conn5", r.cwnd_last_conn, "segments");
  report.add_series("fig06_queue", r.queue_trace, "packets");
  bench::finish_report(report);

  bench::print_series("(a) bottleneck throughput (10 ms bins):",
                      r.throughput_mbps, 30, " Mbps");
  std::printf("\n");
  bench::print_series("(b) congestion window of connection 5 (segments):",
                      r.cwnd_last_conn, 30);

  std::printf("\n");
  std::uint64_t timeouts = 0;
  for (auto t : r.timeouts_per_conn) timeouts += t;
  stats::Table table{{"metric", "paper", "measured"}};
  table.add_row({"TCP timeouts", "0", stats::Table::integer(timeouts)});
  table.add_row({"dropped packets", "0", stats::Table::integer(r.total_drops)});
  table.add_row({"max queue (pkts)", "< 20",
                 stats::Table::num(r.queue_trace.empty() ? 0 : r.queue_trace.max_value(), 0)});
  table.add_row({"all HTTP connections finish by", "< 0.6 s",
                 bench::fmt("%.3f s", r.last_lpt_completion.to_seconds())});
  table.add_row({"window before LPT (per conn)", "small (probing resets)",
                 [&] {
                   std::string s;
                   for (double w : r.cwnd_at_lpt_start) s += stats::Table::num(w, 0) + " ";
                   return s;
                 }()});
  table.print();
  std::printf("shape check: %s\n",
              (timeouts == 0 && r.total_drops == 0 &&
               r.last_lpt_completion.to_seconds() < 0.6)
                  ? "OK (matches paper)"
                  : "MISMATCH");
  return 0;
}
