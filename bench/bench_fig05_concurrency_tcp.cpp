// Fig. 5 — concurrency impairment under plain TCP: sweep the number of
// concurrent SPT servers for 0/1/2 background long trains and report the
// SPTs' average / min / max completion times.
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
  exp::print_banner("Fig. 5 — SPT completion times under TCP (0/1/2 LPTs)",
                    "Sec. II-B-2, Fig. 5");

  const std::vector<int> spt_counts =
      exp::quick_mode() ? std::vector<int>{2, 6, 10} : std::vector<int>{1, 2, 4, 6, 8, 10, 12};
  const int reps = exp::repeats(3, 1);

  // All runs are independent: build the full sweep up front and fan it
  // out across REPRO_JOBS workers. Results come back in submission order,
  // so the table is bit-identical to the serial loop.
  std::vector<exp::ConcurrencyConfig> cfgs;
  for (int lpts : {0, 1, 2}) {
    for (int spts : spt_counts) {
      for (int rep = 0; rep < reps; ++rep) {
        exp::ConcurrencyConfig cfg;
        cfg.protocol = tcp::Protocol::kReno;
        cfg.num_spt_servers = spts;
        cfg.num_lpt_servers = lpts;
        cfg.seed = exp::run_seed(0x0500 + lpts, rep * 100 + spts);
        cfgs.push_back(cfg);
      }
    }
  }
  const auto results = exp::run_parallel(cfgs, exp::run_concurrency);

  obs::RunReport report{"fig05_concurrency_tcp"};
  bench::merge_telemetry(report, results);
  for (const auto& r : results) {
    for (const auto& fs : r.flow_summaries) report.add_flow(fs);
  }

  stats::Table table{{"#SPT servers", "#LPTs", "ACT (ms)", "min (ms)", "max (ms)",
                      "SPT timeouts"}};
  std::size_t next = 0;
  for (int lpts : {0, 1, 2}) {
    for (int spts : spt_counts) {
      stats::Summary act, mn, mx;
      std::uint64_t timeouts = 0;
      for (int rep = 0; rep < reps; ++rep) {
        const auto& r = results[next++];
        act.add(r.act_ms);
        mn.add(r.min_ms);
        mx.add(r.max_ms);
        timeouts += r.spt_timeouts;
      }
      table.add_row({stats::Table::integer(spts), stats::Table::integer(lpts),
                     stats::Table::num(act.mean(), 2), stats::Table::num(mn.mean(), 2),
                     stats::Table::num(mx.mean(), 2),
                     stats::Table::integer(static_cast<long long>(timeouts))});
      report.add_row("spt" + std::to_string(spts) + "_lpt" + std::to_string(lpts),
                     {{"act_ms", act.mean()},
                      {"min_ms", mn.mean()},
                      {"max_ms", mx.mean()},
                      {"spt_timeouts", static_cast<double>(timeouts)}});
    }
  }
  table.print();
  bench::finish_report(report);
  std::printf(
      "paper shape: ACT grows with #LPTs; with 2 LPTs it becomes unacceptably\n"
      "high (RTO-dominated, ~100x the no-LPT case); max completion grows with\n"
      "the number of concurrent SPTs and shows 2 timeouts beyond 6 SPTs.\n");
  return 0;
}
