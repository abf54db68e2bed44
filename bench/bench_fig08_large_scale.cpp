// Fig. 8 — large-scale two-tier topology (210..1050 servers): SPT average
// completion time, TCP vs TCP-TRIM, uniform and exponential SPT spacing.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "exp/experiment.hpp"
#include "exp/large_scale_scenario.hpp"
#include "exp/parallel_runner.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

using namespace trim;

int main() {
  exp::print_banner("Fig. 8 — large-scale two-tier SPT ACT (210-1050 servers)",
                    "Sec. IV-A-2, Fig. 8");

  const std::vector<int> switch_counts =
      exp::quick_mode() ? std::vector<int>{5, 15, 25} : std::vector<int>{5, 10, 15, 20, 25};
  const int reps = exp::repeats(3, 1);

  // The full sweep (both spacings, all scales, TCP and TRIM) is one batch
  // of independent runs fanned across REPRO_JOBS workers; results return
  // in submission order, so the tables match the serial loop bit for bit.
  std::vector<exp::LargeScaleConfig> cfgs;
  for (auto spacing : {exp::SptSpacing::kUniform, exp::SptSpacing::kExponential}) {
    for (int sw : switch_counts) {
      for (int rep = 0; rep < reps; ++rep) {
        exp::LargeScaleConfig cfg;
        cfg.num_switches = sw;
        cfg.spacing = spacing;
        cfg.seed = exp::run_seed(0x0800 + static_cast<int>(spacing), rep * 100 + sw);
        cfg.protocol = tcp::Protocol::kReno;
        cfgs.push_back(cfg);
        cfg.protocol = tcp::Protocol::kTrim;
        cfgs.push_back(cfg);
      }
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto results = exp::run_parallel(cfgs, exp::run_large_scale);
  const double batch_wall = bench::seconds_since(t0);
  obs::RunReport report{"fig08_large_scale"};
  report.add_perf("large_scale_batch", static_cast<double>(cfgs.size()) / batch_wall,
                  {{"runs", static_cast<double>(cfgs.size())},
                   {"wall_seconds", batch_wall}});
  bench::merge_telemetry(report, results);
  report.add_scalar("runs", static_cast<double>(cfgs.size()));

  std::size_t next = 0;
  for (auto spacing : {exp::SptSpacing::kUniform, exp::SptSpacing::kExponential}) {
    std::printf("SPT start-time distribution: %s\n",
                spacing == exp::SptSpacing::kUniform ? "uniform" : "exponential");
    stats::Table table{{"#switches", "#servers", "TCP ACT (ms)", "TRIM ACT (ms)",
                        "reduction", "TCP max (ms)", "TRIM max (ms)"}};
    for (int sw : switch_counts) {
      stats::Summary tcp_act, trim_act, tcp_max, trim_max;
      for (int rep = 0; rep < reps; ++rep) {
        const auto& tcp_r = results[next++];
        tcp_act.add(tcp_r.spt_act_ms);
        tcp_max.add(tcp_r.spt_max_ms);

        const auto& trim_r = results[next++];
        trim_act.add(trim_r.spt_act_ms);
        trim_max.add(trim_r.spt_max_ms);
      }
      const double reduction = 1.0 - trim_act.mean() / tcp_act.mean();
      table.add_row({stats::Table::integer(sw), stats::Table::integer(sw * 42),
                     stats::Table::num(tcp_act.mean(), 2),
                     stats::Table::num(trim_act.mean(), 2),
                     stats::Table::num(reduction * 100.0, 0) + "%",
                     stats::Table::num(tcp_max.mean(), 1),
                     stats::Table::num(trim_max.mean(), 1)});
      report.add_row(
          std::string(spacing == exp::SptSpacing::kUniform ? "uniform" : "exp") +
              "_sw" + std::to_string(sw),
          {{"tcp_act_ms", tcp_act.mean()},
           {"trim_act_ms", trim_act.mean()},
           {"reduction", reduction}});
    }
    table.print();
    std::printf("\n");
  }
  std::printf(
      "paper shape: TRIM reduces SPT ACT by up to 80%%; beyond 840 servers\n"
      "the benefit remains about 50%%.\n");
  bench::finish_report(report);
  return 0;
}
