// Fig. 12 — fat-tree protocol comparison: mean and maximum completion time
// of every server's 1 MB persistent-connection transfer, for TCP, DCTCP,
// L2DCT and TCP-TRIM across pod counts.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "exp/experiment.hpp"
#include "exp/fattree_scenario.hpp"
#include "exp/parallel_runner.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

using namespace trim;

int main() {
  exp::print_banner("Fig. 12 — fat-tree mean/max completion times",
                    "Sec. IV-C, Fig. 12");

  const std::vector<int> pod_counts =
      exp::quick_mode() ? std::vector<int>{4, 6} : std::vector<int>{4, 6, 8, 10};
  const int reps = exp::repeats(3, 1);
  const tcp::Protocol protocols[] = {tcp::Protocol::kReno, tcp::Protocol::kDctcp,
                                     tcp::Protocol::kL2dct, tcp::Protocol::kTrim};

  // One batch of independent runs across all pod counts and protocols,
  // fanned out over REPRO_JOBS workers; consumed in submission order so
  // every table matches the serial loop bit for bit.
  std::vector<exp::FattreeConfig> cfgs;
  for (int pods : pod_counts) {
    for (auto proto : protocols) {
      for (int rep = 0; rep < reps; ++rep) {
        exp::FattreeConfig cfg;
        cfg.protocol = proto;
        cfg.pods = pods;
        cfg.seed = exp::run_seed(0x1200, rep * 100 + pods);
        cfgs.push_back(cfg);
      }
    }
  }
  const auto results = exp::run_parallel(cfgs, exp::run_fattree);

  obs::RunReport report{"fig12_fattree"};
  bench::merge_telemetry(report, results);

  std::size_t next = 0;
  for (int pods : pod_counts) {
    stats::Table table{{"protocol", "mean completion (ms)", "max completion (ms)",
                        "unfinished"}};
    for (auto proto : protocols) {
      stats::Summary mean_ms, max_ms;
      int unfinished = 0;
      for (int rep = 0; rep < reps; ++rep) {
        const auto& r = results[next++];
        mean_ms.add(r.mean_completion_ms);
        max_ms.add(r.max_completion_ms);
        unfinished += r.total_servers - r.completed_servers;
      }
      table.add_row({tcp::to_string(proto), stats::Table::num(mean_ms.mean(), 1),
                     stats::Table::num(max_ms.mean(), 1),
                     stats::Table::integer(unfinished)});
      report.add_row("pods" + std::to_string(pods) + "_" + tcp::to_string(proto),
                     {{"mean_ms", mean_ms.mean()},
                      {"max_ms", max_ms.mean()},
                      {"unfinished", static_cast<double>(unfinished)}});
    }
    std::printf("pod number = %d (%d servers):\n", pods, pods * pods * pods / 4);
    table.print();
    std::printf("\n");
  }
  bench::finish_report(report);
  std::printf(
      "paper shape: TCP is worst everywhere and its tail rises sharply with\n"
      "scale; DCTCP and L2DCT cut the tail via ECN; TCP-TRIM performs best,\n"
      "with the margin growing with pod count.\n");
  return 0;
}
