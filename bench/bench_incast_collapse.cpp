// TCP incast throughput collapse (the context of the paper's refs
// [13][18][19]): N servers answer a barrier-synchronized request with one
// block each; the client's goodput collapses for plain TCP as N grows
// (whole-window losses -> RTO idle time) while TCP-TRIM holds goodput by
// keeping the buffer shallow. Not a numbered figure of the paper, but the
// regime Sec. II-B-2 builds on — included as an extension experiment.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/sender_factory.hpp"
#include "exp/experiment.hpp"
#include "stats/table.hpp"
#include "topo/many_to_one.hpp"

using namespace trim;

namespace {

struct IncastResult {
  double goodput_mbps = 0.0;
  std::uint64_t timeouts = 0;
  std::uint64_t drops = 0;
  double sync_done_ms = 0.0;  // when the whole barrier round completed
  obs::TelemetrySnapshot telemetry;
};

// One synchronized round: every server sends `block_bytes` at t=0; the
// round ends when the last byte arrives. Goodput = total bytes / round time.
IncastResult run_round(tcp::Protocol protocol, int servers,
                       std::uint64_t block_bytes) {
  exp::World world;
  topo::ManyToOneConfig topo_cfg;
  topo_cfg.num_servers = servers;
  topo_cfg.switch_queue =
      exp::switch_queue_for(protocol, topo_cfg.switch_buffer_pkts, topo_cfg.link_bps);
  const auto topo = build_many_to_one(world.network, topo_cfg);
  const auto opts = exp::default_options(protocol, topo_cfg.link_bps,
                                         sim::SimTime::millis(200));

  std::vector<tcp::Flow> flows;
  for (int i = 0; i < servers; ++i) {
    flows.push_back(core::make_protocol_flow(world.network, *topo.servers[i],
                                             *topo.front_end, protocol, opts));
    flows.back().sender->write(block_bytes);
  }
  world.simulator.run_until(sim::SimTime::seconds(30));

  IncastResult out;
  sim::SimTime last_done;
  for (auto& flow : flows) {
    out.timeouts += flow.sender->stats().timeouts;
    const auto times = flow.sender->stats().completed_message_times();
    if (!times.empty()) last_done = std::max(last_done, times[0]);
  }
  out.drops = world.network.total_drops();
  out.sync_done_ms = last_done.to_millis();
  if (last_done > sim::SimTime::zero()) {
    out.goodput_mbps = static_cast<double>(block_bytes) * servers * 8.0 /
                       last_done.to_seconds() / 1e6;
  }
  out.telemetry = world.telemetry_snapshot();
  return out;
}

}  // namespace

int main() {
  exp::print_banner("Incast collapse — synchronized block transfers",
                    "extension (regime of refs [13][18][19])");

  const std::vector<int> fan_in =
      exp::quick_mode() ? std::vector<int>{4, 16, 48} : std::vector<int>{2, 4, 8, 16, 32, 48, 64};
  const std::uint64_t block = 256 * 1024;  // per-server block (classic setup)

  obs::RunReport report{"incast_collapse"};
  obs::TelemetrySnapshot tele;
  stats::Table table{{"#servers", "TCP goodput", "TRIM goodput", "TCP RTOs",
                      "TRIM RTOs", "TCP round (ms)", "TRIM round (ms)"}};
  for (int n : fan_in) {
    const auto tcp_r = run_round(tcp::Protocol::kReno, n, block);
    const auto trim_r = run_round(tcp::Protocol::kTrim, n, block);
    tele.merge(tcp_r.telemetry);
    tele.merge(trim_r.telemetry);
    report.add_row("fanin" + std::to_string(n),
                   {{"tcp_goodput_mbps", tcp_r.goodput_mbps},
                    {"trim_goodput_mbps", trim_r.goodput_mbps},
                    {"tcp_rtos", static_cast<double>(tcp_r.timeouts)},
                    {"trim_rtos", static_cast<double>(trim_r.timeouts)}});
    table.add_row({stats::Table::integer(n),
                   stats::Table::num(tcp_r.goodput_mbps, 0) + " Mbps",
                   stats::Table::num(trim_r.goodput_mbps, 0) + " Mbps",
                   stats::Table::integer(static_cast<long long>(tcp_r.timeouts)),
                   stats::Table::integer(static_cast<long long>(trim_r.timeouts)),
                   stats::Table::num(tcp_r.sync_done_ms, 1),
                   stats::Table::num(trim_r.sync_done_ms, 1)});
  }
  table.print();
  report.set_telemetry(std::move(tele));
  bench::finish_report(report);
  std::printf(
      "expected: TCP goodput collapses once the synchronized windows overrun\n"
      "the 100-packet buffer (RTO-bound rounds); TRIM degrades gracefully\n"
      "because delay back-off caps every sender's footprint.\n");
  return 0;
}
