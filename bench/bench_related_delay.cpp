// Related-work positioning (paper Sec. V): TCP-TRIM against
//  * GIP [13] — restart every train at cwnd=2 + redundant tail packet.
//    The paper argues GIP "may underutilize the bottleneck link if the
//    network has enough capacity to accommodate a large window".
//  * TCP Vegas [21] — the classic delay-based scheme TRIM's queue control
//    descends from, but with no train-boundary awareness.
//
// Two workloads make the trade-offs visible:
//  (a) an *uncongested* train sequence on a fat pipe, where GIP's
//      unconditional reset costs completion time and TRIM's probe restores
//      the inherited window in one RTT;
//  (b) the paper's concurrency impairment (warm windows + 2 LPTs), where
//      blind inheritance (Reno) collapses and all three defenses survive.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "core/sender_factory.hpp"
#include "exp/concurrency_scenario.hpp"
#include "exp/experiment.hpp"
#include "http/response_stream.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "topo/many_to_one.hpp"

using namespace trim;

namespace {

// (a) One connection on an idle 1 Gbps path sends a sequence of 256 KB
// trains separated by 5 ms OFF gaps. Reports mean train completion time.
double uncongested_train_act_ms(tcp::Protocol protocol, int trains) {
  exp::World world;
  topo::ManyToOneConfig topo_cfg;
  topo_cfg.num_servers = 1;
  topo_cfg.link_delay = sim::SimTime::micros(250);  // fat pipe: BDP ~ 43 pkts
  const auto topo = build_many_to_one(world.network, topo_cfg);
  const auto opts = exp::default_options(protocol, topo_cfg.link_bps,
                                         sim::SimTime::millis(200));
  auto flow = core::make_protocol_flow(world.network, *topo.servers[0],
                                       *topo.front_end, protocol, opts);
  http::ResponseStream stream{&world.simulator, flow.sender.get(),
                              [] { return std::uint64_t{256 * 1024}; },
                              [] { return sim::SimTime::millis(5); }};
  stream.run(sim::SimTime::zero(), sim::SimTime::max(),
             static_cast<std::uint64_t>(trains));
  world.simulator.run_until(sim::SimTime::seconds(30));

  stats::Summary act;
  for (const auto& t : flow.sender->stats().completed_message_times()) {
    act.add(t.to_millis());
  }
  return act.mean();
}

}  // namespace

int main() {
  exp::print_banner("Related work — TRIM vs GIP vs Vegas", "Sec. V discussion");

  const tcp::Protocol protocols[] = {tcp::Protocol::kReno, tcp::Protocol::kGip,
                                     tcp::Protocol::kVegas, tcp::Protocol::kTrim};

  std::printf("(a) uncongested 256 KB trains, 5 ms OFF gaps, idle 1 Gbps path\n");
  stats::Table idle_table{{"protocol", "train ACT (ms)", "vs TRIM"}};
  const int trains = exp::quick_mode() ? 20 : 60;
  double trim_act = 0.0;
  std::vector<std::pair<tcp::Protocol, double>> idle_results;
  for (auto p : protocols) {
    idle_results.emplace_back(p, uncongested_train_act_ms(p, trains));
    if (p == tcp::Protocol::kTrim) trim_act = idle_results.back().second;
  }
  for (const auto& [p, act] : idle_results) {
    idle_table.add_row({tcp::to_string(p), stats::Table::num(act, 2),
                        stats::Table::num(act / trim_act, 2) + "x"});
  }
  idle_table.print();
  std::printf(
      "expected: GIP pays for restarting at 2 on every train (the paper's\n"
      "critique); TRIM's probes re-inherit the window and match plain TCP's\n"
      "inheritance speed on an idle path.\n\n");

  std::printf("(b) concurrency impairment: warm windows + 2 LPTs, 8 SPT servers\n");
  obs::RunReport report{"related_delay"};
  obs::TelemetrySnapshot tele;
  for (const auto& [p, act] : idle_results) {
    report.add_row("idle_" + tcp::to_string(p), {{"train_act_ms", act}});
  }
  stats::Table hot_table{{"protocol", "SPT ACT (ms)", "max (ms)", "timeouts"}};
  for (auto p : protocols) {
    exp::ConcurrencyConfig cfg;
    cfg.protocol = p;
    cfg.num_spt_servers = 8;
    cfg.seed = exp::run_seed(0x0E1A, 1);
    const auto r = run_concurrency(cfg);
    hot_table.add_row({tcp::to_string(p), stats::Table::num(r.act_ms, 2),
                       stats::Table::num(r.max_ms, 2),
                       stats::Table::integer(static_cast<long long>(r.spt_timeouts))});
    tele.merge(r.telemetry);
    report.add_row("hot_" + tcp::to_string(p),
                   {{"act_ms", r.act_ms},
                    {"max_ms", r.max_ms},
                    {"timeouts", static_cast<double>(r.spt_timeouts)}});
  }
  hot_table.print();
  report.set_telemetry(std::move(tele));
  bench::finish_report(report);
  std::printf(
      "expected: Reno collapses (blind inheritance); GIP, Vegas and TRIM all\n"
      "avoid the RTO storm, with TRIM matching the best tail.\n");
  return 0;
}
