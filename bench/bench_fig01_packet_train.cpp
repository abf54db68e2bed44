// Fig. 1 — "Understand the Packet Train": trace a simulated web server's
// HTTP connection and show the detected trains (LPTs stream, SPTs burst
// intermittently), reproducing the packet-sequence structure of the paper's
// campus-trace plot from the synthetic workload.
#include <cstdio>

#include "bench_util.hpp"
#include "core/sender_factory.hpp"
#include "http/response_stream.hpp"
#include "http/train_analyzer.hpp"
#include "http/train_workload.hpp"
#include "stats/table.hpp"
#include "topo/many_to_one.hpp"

using namespace trim;

int main() {
  exp::print_banner("Fig. 1 — packet trains on one HTTP connection",
                    "Sec. II-A, Fig. 1");

  // One web server on a persistent connection, ON/OFF traffic from the
  // Fig. 2 distributions, observed at the front-end's ingress link.
  exp::World world;
  topo::ManyToOneConfig topo_cfg;
  topo_cfg.num_servers = 1;
  const auto topo = build_many_to_one(world.network, topo_cfg);
  auto flow = core::make_protocol_flow(world.network, *topo.servers[0],
                                       *topo.front_end, tcp::Protocol::kReno,
                                       core::ProtocolOptions{});

  // Tap every delivered data packet at the receiver.
  http::TrainAnalyzer analyzer{sim::SimTime::micros(300)};  // inter-train gap
  std::uint64_t seq_bytes = 0;
  stats::TimeSeries sequence;  // the Fig. 1 packet-sequence curve
  flow.receiver->set_deliver_callback([&](std::uint64_t bytes) {
    analyzer.observe(world.simulator.now(), static_cast<std::uint32_t>(bytes));
    seq_bytes += bytes;
    sequence.record(world.simulator.now(), static_cast<double>(seq_bytes) / 1460.0);
  });

  http::TrainWorkload workload{sim::Rng{exp::base_seed()}};
  http::ResponseStream source{&world.simulator, flow.sender.get(),
                              [&workload] { return workload.sample_train_bytes(); },
                              [&workload] { return workload.sample_gap(); }};
  source.run(sim::SimTime::millis(1), sim::SimTime::millis(400));
  world.simulator.run_until(sim::SimTime::seconds(2));

  bench::print_series("packet sequence number vs time (segments delivered):",
                      sequence, 28);

  const auto& trains = analyzer.finish();
  std::printf("\ndetected %zu trains (gap threshold 300 us):\n", trains.size());
  stats::Table table{{"train", "start (ms)", "packets", "KB", "type"}};
  int idx = 0;
  int lpts = 0, spts = 0;
  for (const auto& t : trains) {
    const bool lpt = http::TrainWorkload::is_long_train(t.bytes);
    lpt ? ++lpts : ++spts;
    if (idx < 20) {  // first rows as the figure's visual sample
      table.add_row({stats::Table::integer(idx),
                     stats::Table::num(t.first_packet.to_millis(), 2),
                     stats::Table::integer(t.packets),
                     stats::Table::num(t.bytes / 1024.0, 1), lpt ? "LPT" : "SPT"});
    }
    ++idx;
  }
  table.print();
  std::printf("totals: %d SPTs, %d LPTs "
              "(paper: SPTs burst with a few to dozens of packets, "
              "LPTs carry ~100+ packets)\n",
              spts, lpts);

  // Paper's qualitative claim: LPT packet counts dwarf SPT counts.
  std::uint32_t max_spt = 0, max_lpt = 0;
  for (const auto& t : trains) {
    if (http::TrainWorkload::is_long_train(t.bytes)) {
      max_lpt = std::max(max_lpt, t.packets);
    } else {
      max_spt = std::max(max_spt, t.packets);
    }
  }
  std::printf("max SPT packets: %u, max LPT packets: %u\n", max_spt, max_lpt);

  obs::RunReport report{"fig01_packet_train"};
  report.set_telemetry(world.telemetry_snapshot());
  report.add_scalar("trains", static_cast<double>(trains.size()));
  report.add_scalar("spts", spts);
  report.add_scalar("lpts", lpts);
  bench::finish_report(report);
  return 0;
}
