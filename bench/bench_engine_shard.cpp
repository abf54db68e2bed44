// Sharded-engine scaling curve: events/s of one giant scenario at 1, 2, 4,
// and 8 shards, on the fig08 two-tier incast and the fig12 fat-tree.
//
// Each cell runs the identical workload (same config, same seed) with only
// the shard count changed, takes the best of three trials (events/s from
// the engine's own dispatch and wall counters), and reports the speedup
// over the 1-shard serial engine, the stall fraction (summed barrier-stall
// wall time over shards x elapsed), and the barrier-window rate per
// simulated second. A determinism self-check re-runs the widest sharded
// cell of each topology and fails the binary (non-zero exit) if any result
// metric differs between repetitions.
//
// Numbers are only meaningful relative to `hw_threads` (in the report
// header): on a single-core host every width runs at serial speed minus
// barrier overhead, and the curve flattens by construction. CI runs this
// on multi-core runners; see REPORT_engine_shard.json.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "exp/experiment.hpp"
#include "exp/fattree_scenario.hpp"
#include "exp/large_scale_scenario.hpp"

namespace {

using namespace trim;

struct Cell {
  double events_per_sec = 0.0;   // best of trials
  std::uint64_t events = 0;
  double act_ms = 0.0;           // scenario-level sanity metric
  sim::EngineRun run;            // of the best trial

  // Summed barrier-stall over every shard-second of elapsed wall time:
  // the fraction of the fleet's run spent synchronizing instead of
  // simulating (0 on the serial path).
  double stall_fraction() const {
    if (run.run_wall_s <= 0.0 || run.shards <= 0) return 0.0;
    double stall = 0.0;
    for (const double s : run.shard_stall_s) stall += s;
    return stall / (static_cast<double>(run.shards) * run.run_wall_s);
  }
};

exp::LargeScaleConfig fig08_config(int shards, bool quick) {
  exp::LargeScaleConfig cfg;
  cfg.protocol = tcp::Protocol::kReno;
  cfg.num_switches = quick ? 10 : 25;
  cfg.servers_per_switch = 42;
  cfg.spt_window = sim::SimTime::seconds(quick ? 0.2 : 0.5);
  cfg.drain = sim::SimTime::seconds(quick ? 0.3 : 0.7);
  cfg.seed = 1;
  cfg.shards = shards;
  return cfg;
}

exp::FattreeConfig fig12_config(int shards, bool quick) {
  exp::FattreeConfig cfg;
  cfg.protocol = tcp::Protocol::kReno;
  cfg.pods = quick ? 4 : 8;
  cfg.run_until = sim::SimTime::seconds(quick ? 1.5 : 3.0);
  cfg.seed = 1;
  cfg.shards = shards;
  return cfg;
}

template <typename Result, typename Run>
Cell measure(int shards, int trials, Run run, double Result::* act) {
  Cell cell;
  cell.run.shards = shards;
  for (int t = 0; t < trials; ++t) {
    const Result r = run(shards);
    const double wall = r.engine.run_wall_s;
    const double eps = wall > 0.0 ? static_cast<double>(r.events_dispatched) / wall : 0.0;
    if (eps > cell.events_per_sec) {
      cell.events_per_sec = eps;
      cell.events = r.events_dispatched;
      cell.run = r.engine;
    }
    cell.act_ms = r.*act;
  }
  return cell;
}

template <typename Result, typename Run>
bool determinism_check(const char* name, int shards, Run run,
                       double Result::* act) {
  const Result a = run(shards);
  const Result b = run(shards);
  if (a.events_dispatched != b.events_dispatched || a.*act != b.*act ||
      a.drops != b.drops) {
    std::fprintf(stderr,
                 "DETERMINISM FAILURE [%s @ %d shards]: events %llu vs "
                 "%llu, metric %.9g vs %.9g, drops %llu vs %llu\n",
                 name, shards,
                 static_cast<unsigned long long>(a.events_dispatched),
                 static_cast<unsigned long long>(b.events_dispatched), a.*act,
                 b.*act, static_cast<unsigned long long>(a.drops),
                 static_cast<unsigned long long>(b.drops));
    return false;
  }
  return true;
}

void print_curve(const char* title, const std::vector<Cell>& cells,
                 double sim_seconds) {
  std::printf("%s\n", title);
  std::printf("  %-7s %13s %10s %9s %8s %8s %10s %8s %11s\n", "shards",
              "events/s", "wall (s)", "speedup", "windows", "skipped",
              "win/sim_s", "imbal", "stall_frac");
  const double serial = cells.front().events_per_sec;
  for (const auto& c : cells) {
    std::printf(
        "  %-7d %13.0f %10.3f %8.2fx %8llu %8llu %10.0f %8.2f %11.4f\n",
        c.run.shards, c.events_per_sec, c.run.run_wall_s,
        serial > 0.0 ? c.events_per_sec / serial : 0.0,
        static_cast<unsigned long long>(c.run.windows),
        static_cast<unsigned long long>(c.run.windows_skipped),
        sim_seconds > 0.0 ? static_cast<double>(c.run.windows) / sim_seconds : 0.0,
        c.run.events_imbalance, c.stall_fraction());
  }
}

// Two report entries per cell. The "rows" entry holds what the run
// computed: dispatch counts, window plan and the scenario metric, all
// identical across repeated runs at one width. The "perf" entry holds the
// wall-clock side: events/s, speedup and per-shard barrier stall.
void report_curve(obs::RunReport& report, const std::string& prefix,
                  const std::vector<Cell>& cells, double sim_seconds,
                  const char* act_name) {
  const double serial_eps = cells.front().events_per_sec;
  for (const auto& c : cells) {
    const auto& run = c.run;
    const std::string scenario = prefix + "_matrix_shards_" + std::to_string(run.shards);
    std::vector<std::pair<std::string, double>> row{
        {"shards", static_cast<double>(run.shards)},
        {"events", static_cast<double>(c.events)},
        {act_name, c.act_ms},
        {"windows", static_cast<double>(run.windows)},
        {"windows_skipped", static_cast<double>(run.windows_skipped)},
        {"windows_per_sim_s",
         sim_seconds > 0.0 ? static_cast<double>(run.windows) / sim_seconds : 0.0},
        {"events_imbalance", run.events_imbalance},
    };
    std::vector<std::pair<std::string, double>> perf{
        {"run_wall_s", run.run_wall_s},
        {"speedup_vs_serial", serial_eps > 0.0 ? c.events_per_sec / serial_eps : 0.0},
        {"stall_fraction", c.stall_fraction()},
    };
    for (std::size_t i = 0; i < run.shard_events.size(); ++i) {
      row.emplace_back("events_" + std::to_string(i),
                       static_cast<double>(run.shard_events[i]));
      perf.emplace_back("stall_s_" + std::to_string(i), run.shard_stall_s[i]);
    }
    report.add_row(scenario, std::move(row));
    report.add_perf(scenario, c.events_per_sec, std::move(perf));
  }
}

}  // namespace

int main() {
  const bool quick = exp::quick_mode();
  const int trials = quick ? 2 : 3;
  const unsigned hw = std::thread::hardware_concurrency();
  exp::print_banner("Sharded engine scaling (events/s vs TRIM_SHARDS)",
                    "engine scalability for Figs. 8 and 12 scale scenarios");
  std::printf("hardware threads: %u%s\n\n", hw,
              hw <= 1 ? "  (single core: expect a flat curve)" : "");

  const std::vector<int> widths{1, 2, 4, 8};
  obs::RunReport report{"engine_shard"};

  // --- fig08-scale two-tier incast ---
  auto run08 = [quick](int shards) {
    return exp::run_large_scale(fig08_config(shards, quick));
  };
  const double sim_s08 = quick ? 0.5 : 1.2;  // spt_window + drain
  std::vector<Cell> curve08;
  for (const int w : widths) {
    curve08.push_back(measure<exp::LargeScaleResult>(
        w, trials, run08, &exp::LargeScaleResult::spt_act_ms));
  }
  print_curve("fig08-scale two-tier (1050 servers full / 420 quick):", curve08,
              sim_s08);
  std::printf("\n");
  report_curve(report, "fig08_scale", curve08, sim_s08, "spt_act_ms");

  // --- fig12-scale fat-tree ---
  auto run12 = [quick](int shards) {
    return exp::run_fattree(fig12_config(shards, quick));
  };
  const double sim_s12 = quick ? 1.5 : 3.0;  // run_until
  std::vector<Cell> curve12;
  for (const int w : widths) {
    curve12.push_back(measure<exp::FattreeResult>(
        w, trials, run12, &exp::FattreeResult::mean_completion_ms));
  }
  print_curve("fig12-scale fat-tree (k=8 full / k=4 quick):", curve12, sim_s12);
  std::printf("\n");
  report_curve(report, "fattree_scale", curve12, sim_s12, "mean_completion_ms");

  // --- determinism self-check at the widest sharded width ---
  std::printf("determinism self-check (8 shards, two repetitions)... ");
  const bool ok =
      determinism_check<exp::LargeScaleResult>(
          "fig08", 8, run08, &exp::LargeScaleResult::spt_act_ms) &&
      determinism_check<exp::FattreeResult>(
          "fattree", 8, run12, &exp::FattreeResult::mean_completion_ms);
  std::printf("%s\n", ok ? "ok" : "FAILED");
  bench::finish_report(report);
  return ok ? 0 : 1;
}
