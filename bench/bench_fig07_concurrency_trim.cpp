// Fig. 7 — the Fig. 5 concurrency test with 2 LPTs, TCP-TRIM vs TCP:
// TRIM's SPT ACT stays at a few milliseconds while TCP's is up to two
// orders of magnitude higher.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "exp/concurrency_scenario.hpp"
#include "exp/experiment.hpp"
#include "exp/parallel_runner.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

using namespace trim;

int main() {
  exp::print_banner("Fig. 7 — ACTs of SPTs with 2 LPTs (TCP vs TCP-TRIM)",
                    "Sec. IV-A-2, Fig. 7");

  const std::vector<int> spt_counts =
      exp::quick_mode() ? std::vector<int>{2, 6, 10} : std::vector<int>{1, 2, 4, 6, 8, 10, 12};
  const int reps = exp::repeats(3, 1);

  // Independent runs: fan the whole TCP/TRIM sweep out across REPRO_JOBS
  // workers, then consume results in the identical submission order.
  std::vector<exp::ConcurrencyConfig> cfgs;
  for (int spts : spt_counts) {
    for (int rep = 0; rep < reps; ++rep) {
      exp::ConcurrencyConfig cfg;
      cfg.num_spt_servers = spts;
      cfg.num_lpt_servers = 2;
      cfg.seed = exp::run_seed(0x0700, rep * 100 + spts);
      cfg.protocol = tcp::Protocol::kReno;
      cfgs.push_back(cfg);
      cfg.protocol = tcp::Protocol::kTrim;
      cfgs.push_back(cfg);
    }
  }
  const auto results = exp::run_parallel(cfgs, exp::run_concurrency);

  obs::RunReport report{"fig07_concurrency_trim"};
  bench::merge_telemetry(report, results);

  stats::Table table{{"#SPT servers", "TCP ACT (ms)", "TRIM ACT (ms)", "ratio",
                      "TCP timeouts", "TRIM timeouts"}};
  std::size_t next = 0;
  for (int spts : spt_counts) {
    stats::Summary tcp_act, trim_act;
    std::uint64_t tcp_to = 0, trim_to = 0;
    for (int rep = 0; rep < reps; ++rep) {
      const auto& tcp_r = results[next++];
      tcp_act.add(tcp_r.act_ms);
      tcp_to += tcp_r.spt_timeouts;

      const auto& trim_r = results[next++];
      trim_act.add(trim_r.act_ms);
      trim_to += trim_r.spt_timeouts;
    }
    table.add_row({stats::Table::integer(spts), stats::Table::num(tcp_act.mean(), 2),
                   stats::Table::num(trim_act.mean(), 2),
                   stats::Table::num(tcp_act.mean() / trim_act.mean(), 1) + "x",
                   stats::Table::integer(static_cast<long long>(tcp_to)),
                   stats::Table::integer(static_cast<long long>(trim_to))});
    report.add_row("spt" + std::to_string(spts),
                   {{"tcp_act_ms", tcp_act.mean()},
                    {"trim_act_ms", trim_act.mean()},
                    {"tcp_timeouts", static_cast<double>(tcp_to)},
                    {"trim_timeouts", static_cast<double>(trim_to)}});
  }
  table.print();
  bench::finish_report(report);
  std::printf(
      "paper shape: TRIM ACT is a few ms across all concurrency levels;\n"
      "TCP ACT is up to two orders of magnitude higher except trivial cases.\n");
  return 0;
}
