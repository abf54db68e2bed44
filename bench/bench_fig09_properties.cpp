// Fig. 9 — TCP-TRIM properties: (a) queue trace with 5 long trains,
// (b) average queue length vs concurrency (RTO 1 ms), (c) dropped packets,
// (d) bottleneck goodput.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "exp/experiment.hpp"
#include "exp/properties_scenario.hpp"
#include "stats/table.hpp"

using namespace trim;

int main() {
  exp::print_banner("Fig. 9 — queue length, drops and goodput", "Sec. IV-B, Fig. 9");

  obs::RunReport report{"fig09_properties"};
  obs::TelemetrySnapshot tele;

  // (a) queue traces with 5 LPTs.
  for (auto proto : {tcp::Protocol::kReno, tcp::Protocol::kTrim}) {
    exp::PropertiesConfig cfg;
    cfg.protocol = proto;
    cfg.seed = exp::run_seed(0x0900, 0);
    const auto r = run_properties(cfg);
    bench::print_series(
        "(a) switch queue with 5 LPTs — " + tcp::to_string(proto) + " (pkts):",
        r.queue_trace, 24);
    report.add_series("fig09a_queue_" + tcp::to_string(proto),
                      r.queue_trace.downsampled(20000), "packets");
    std::printf("\n");
    tele.merge(r.telemetry);
  }

  // (b)-(d): sweep the number of concurrent long trains, RTO 1 ms as in
  // the paper's AQL test.
  const std::vector<int> lpt_counts =
      exp::quick_mode() ? std::vector<int>{2, 8, 16} : std::vector<int>{2, 4, 8, 12, 16, 20};
  stats::Table table{{"#LPTs", "TCP AQL", "TRIM AQL", "TCP drops", "TRIM drops",
                      "TCP goodput", "TRIM goodput"}};
  for (int n : lpt_counts) {
    exp::PropertiesConfig cfg;
    cfg.num_lpts = n;
    cfg.min_rto = sim::SimTime::millis(1);
    cfg.seed = exp::run_seed(0x0901, n);

    cfg.protocol = tcp::Protocol::kReno;
    const auto tcp_r = run_properties(cfg);
    cfg.protocol = tcp::Protocol::kTrim;
    const auto trim_r = run_properties(cfg);

    table.add_row({stats::Table::integer(n), stats::Table::num(tcp_r.avg_queue_pkts, 1),
                   stats::Table::num(trim_r.avg_queue_pkts, 1),
                   stats::Table::integer(static_cast<long long>(tcp_r.drops)),
                   stats::Table::integer(static_cast<long long>(trim_r.drops)),
                   stats::Table::num(tcp_r.goodput_mbps, 0) + " Mbps",
                   stats::Table::num(trim_r.goodput_mbps, 0) + " Mbps"});
    tele.merge(tcp_r.telemetry);
    tele.merge(trim_r.telemetry);
    report.add_row("lpts" + std::to_string(n),
                   {{"tcp_aql_pkts", tcp_r.avg_queue_pkts},
                    {"trim_aql_pkts", trim_r.avg_queue_pkts},
                    {"tcp_drops", static_cast<double>(tcp_r.drops)},
                    {"trim_drops", static_cast<double>(trim_r.drops)},
                    {"tcp_goodput_mbps", tcp_r.goodput_mbps},
                    {"trim_goodput_mbps", trim_r.goodput_mbps}});
  }
  table.print();
  report.set_telemetry(std::move(tele));
  bench::finish_report(report);
  std::printf(
      "paper shape: TCP sawtooths into the 100-pkt ceiling and drops more as\n"
      "concurrency rises; TRIM's AQL stays small and stable with zero drops\n"
      "and ~98%% bottleneck utilization.\n");
  return 0;
}
