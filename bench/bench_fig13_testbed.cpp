// Fig. 13 — the (simulated) testbed experiments:
// (a) ARCT vs mean response size on 100 Mbps links with two background
//     file transfers, CUBIC vs TCP-TRIM;
// (b-d) web-service run: completion-time extremes of 64-256 KB responses
//     for CUBIC / TCP Reno / TCP-TRIM;
// (e) completion-time CDF of all 4000 responses per protocol.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "exp/experiment.hpp"
#include "exp/testbed_scenario.hpp"
#include "stats/table.hpp"

using namespace trim;

int main() {
  exp::print_banner("Fig. 13 — testbed web-service experiments (simulated)",
                    "Sec. IV-D, Fig. 13");

  // ---- (a) ARCT vs mean response size ----
  const std::vector<std::uint64_t> sizes =
      exp::quick_mode()
          ? std::vector<std::uint64_t>{32 << 10, 256 << 10, 1 << 20}
          : std::vector<std::uint64_t>{32 << 10, 64 << 10, 128 << 10, 256 << 10,
                                       512 << 10, 1 << 20};
  obs::RunReport report{"fig13_testbed"};
  obs::TelemetrySnapshot tele;
  stats::Table arct{{"mean size", "CUBIC ARCT (ms)", "TRIM ARCT (ms)", "revenue",
                     "CUBIC max (ms)", "TRIM max (ms)"}};
  for (auto size : sizes) {
    exp::ArctConfig cfg;
    cfg.mean_response_bytes = size;
    cfg.num_responses = exp::quick_mode() ? 40 : 100;
    cfg.seed = exp::run_seed(0x1300, static_cast<int>(size >> 15));

    cfg.protocol = tcp::Protocol::kCubic;
    const auto cubic = run_arct(cfg);
    cfg.protocol = tcp::Protocol::kTrim;
    const auto trim = run_arct(cfg);

    arct.add_row({stats::Table::num(size / 1024.0, 0) + " KB",
                  stats::Table::num(cubic.arct_ms, 1),
                  stats::Table::num(trim.arct_ms, 1),
                  stats::Table::num((1.0 - trim.arct_ms / cubic.arct_ms) * 100, 0) + "%",
                  stats::Table::num(cubic.max_ms, 1),
                  stats::Table::num(trim.max_ms, 1)});
    tele.merge(cubic.telemetry);
    tele.merge(trim.telemetry);
    report.add_row("arct_" + std::to_string(size >> 10) + "kb",
                   {{"cubic_arct_ms", cubic.arct_ms},
                    {"trim_arct_ms", trim.arct_ms}});
  }
  std::printf("(a) ARCT under two background large-file transfers, 100 Mbps:\n");
  arct.print();
  std::printf("paper shape: both ARCTs grow with size, TRIM's more gently; the\n"
              "larger the response the larger TRIM's revenue.\n\n");

  // ---- (b)-(e) web-service run ----
  stats::Table service{{"protocol", "ARCT (ms)", "64-256KB max (ms)",
                        ">50 ms samples", "p99 (ms)", "all <= 25 ms?"}};
  for (auto proto :
       {tcp::Protocol::kCubic, tcp::Protocol::kReno, tcp::Protocol::kTrim}) {
    exp::WebServiceConfig cfg;
    cfg.protocol = proto;
    cfg.responses_per_server = exp::quick_mode() ? 250 : 1000;
    cfg.seed = exp::run_seed(0x1301, 0);
    const auto r = run_web_service(cfg);
    report.add_cdf("fig13e_cdf_" + tcp::to_string(proto), r.completion_cdf_ms,
                   "completion_ms");
    const auto mid = r.mid_band_ms();
    int over_50 = 0;
    for (const auto& s : r.samples) {
      if (s.completion_ms > 50.0) ++over_50;
    }
    service.add_row({tcp::to_string(proto), stats::Table::num(r.arct_ms, 2),
                     stats::Table::num(mid.empty() ? 0.0 : mid.max(), 1),
                     stats::Table::integer(over_50),
                     stats::Table::num(r.completion_cdf_ms.quantile(0.99), 1),
                     r.completion_cdf_ms.max() <= 25.0 ? "yes" : "no"});
    tele.merge(r.telemetry);
    report.add_row("service_" + tcp::to_string(proto),
                   {{"arct_ms", r.arct_ms},
                    {"p99_ms", r.completion_cdf_ms.quantile(0.99)},
                    {"over_50ms", static_cast<double>(over_50)}});
  }
  report.set_telemetry(std::move(tele));
  bench::finish_report(report);
  std::printf("(b-e) web service: 4 servers, 4000 responses, Fig. 2 workload:\n");
  service.print();
  std::printf(
      "paper shape: every TRIM sample stays below 25 ms; CUBIC and Reno show\n"
      "samples beyond 50 ms (some near 250 ms); ~99%% of TRIM completions are\n"
      "below 25 ms, giving the best ARCT and tail.\n");
  return 0;
}
