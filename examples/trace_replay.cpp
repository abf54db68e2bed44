// Trace record & replay: capture the packet-train structure of a live
// simulated connection, persist it as a CSV trace, then drive a brand-new
// experiment from that trace instead of the analytic Fig. 2 distributions
// — the workflow you would use with a real capture in place of the paper's
// (unavailable) campus trace.
//
//   $ ./build/examples/trace_replay [trace.csv]
#include <cstdio>
#include <string>

#include "core/sender_factory.hpp"
#include "exp/experiment.hpp"
#include "http/response_stream.hpp"
#include "http/trace_io.hpp"
#include "http/train_analyzer.hpp"
#include "http/train_workload.hpp"
#include "stats/summary.hpp"
#include "topo/many_to_one.hpp"

using namespace trim;

namespace {

// Run one ON/OFF connection with `workload`; returns the detected trains.
std::vector<http::TrainRecord> record_phase(http::TrainWorkload workload) {
  exp::World world;
  topo::ManyToOneConfig topo_cfg;
  topo_cfg.num_servers = 1;
  const auto topo = build_many_to_one(world.network, topo_cfg);
  auto flow = core::make_protocol_flow(world.network, *topo.servers[0],
                                       *topo.front_end, tcp::Protocol::kTrim,
                                       exp::default_options(tcp::Protocol::kTrim,
                                                            topo_cfg.link_bps,
                                                            sim::SimTime::millis(200)));
  http::TrainAnalyzer analyzer{sim::SimTime::micros(300)};
  flow.receiver->set_deliver_callback([&](std::uint64_t bytes) {
    analyzer.observe(world.simulator.now(), static_cast<std::uint32_t>(bytes));
  });
  http::ResponseStream source{&world.simulator, flow.sender.get(),
                              [&workload] { return workload.sample_train_bytes(); },
                              [&workload] { return workload.sample_gap(); }};
  source.run(sim::SimTime::millis(1), sim::SimTime::millis(800));
  world.simulator.run_until(sim::SimTime::seconds(3));
  return analyzer.finish();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/trim_train_trace.csv";

  // Phase 1: record — drive a connection from the paper's analytic
  // distributions and capture what actually appeared on the wire.
  std::printf("phase 1: recording a trace from the Fig. 2 analytic workload...\n");
  const auto trains = record_phase(http::TrainWorkload{sim::Rng{2016}});
  http::write_train_trace(path, trains);
  std::printf("  %zu trains written to %s\n\n", trains.size(), path.c_str());

  // Phase 2: replay — rebuild the workload from the file and rerun.
  std::printf("phase 2: replaying the recorded trace...\n");
  auto replayed = http::load_train_workload(path, sim::Rng{7});
  const auto replay_trains = record_phase(std::move(replayed));

  auto summarize = [](const std::vector<http::TrainRecord>& ts) {
    stats::Summary kb;
    for (const auto& t : ts) kb.add(static_cast<double>(t.bytes) / 1024.0);
    return kb;
  };
  const auto orig = summarize(trains);
  const auto rep = summarize(replay_trains);
  std::printf("  original: %llu trains, mean %.1f KB (%.1f..%.1f)\n",
              static_cast<unsigned long long>(orig.count()), orig.mean(), orig.min(),
              orig.max());
  std::printf("  replayed: %llu trains, mean %.1f KB (%.1f..%.1f)\n",
              static_cast<unsigned long long>(rep.count()), rep.mean(), rep.min(),
              rep.max());
  std::printf("\nthe replayed run reproduces the recorded trace's train-size\n"
              "distribution; swap in a CSV from a real capture to drive every\n"
              "experiment with production traffic.\n");
  return 0;
}
