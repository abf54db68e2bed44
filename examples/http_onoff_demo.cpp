// HTTP ON/OFF demo: a persistent connection carrying packet trains drawn
// from the paper's Fig. 2 distributions, with TCP-TRIM's probe machinery
// visible in the flow statistics, and the train structure recovered by the
// TrainAnalyzer at the receiver.
//
//   $ ./build/examples/http_onoff_demo
#include <cstdio>

#include "core/sender_factory.hpp"
#include "exp/experiment.hpp"
#include "http/response_stream.hpp"
#include "http/train_analyzer.hpp"
#include "http/train_workload.hpp"
#include "stats/summary.hpp"
#include "topo/many_to_one.hpp"

using namespace trim;

int main() {
  exp::World world;
  topo::ManyToOneConfig topo_cfg;
  topo_cfg.num_servers = 1;
  const auto topo = build_many_to_one(world.network, topo_cfg);

  const auto opts = exp::default_options(tcp::Protocol::kTrim, topo_cfg.link_bps,
                                         sim::SimTime::millis(200));
  auto flow = core::make_protocol_flow(world.network, *topo.servers[0],
                                       *topo.front_end, tcp::Protocol::kTrim, opts);

  // Receiver-side train detection (Jain & Routhier style, as in Fig. 1).
  http::TrainAnalyzer analyzer{sim::SimTime::micros(300)};
  flow.receiver->set_deliver_callback([&](std::uint64_t bytes) {
    analyzer.observe(world.simulator.now(), static_cast<std::uint32_t>(bytes));
  });

  // ON/OFF stream: next train starts one sampled gap after the previous
  // train is fully acked (persistent HTTP request/response pacing).
  http::TrainWorkload workload{sim::Rng{2016}};
  http::ResponseStream source{&world.simulator, flow.sender.get(),
                              [&workload] { return workload.sample_train_bytes(); },
                              [&workload] { return workload.sample_gap(); }};
  source.run(sim::SimTime::millis(1), sim::SimTime::millis(500));
  world.simulator.run_until(sim::SimTime::seconds(3));

  const auto& trains = analyzer.finish();
  std::printf("emitted %llu trains (%.1f MB total) on one persistent connection\n",
              static_cast<unsigned long long>(flow.sender->stats().messages().size()),
              static_cast<double>(flow.sender->bytes_written()) / 1e6);
  std::printf("receiver reassembled %zu trains\n", trains.size());

  const auto& st = flow.sender->stats();
  std::printf("\nTCP-TRIM internals over this ON/OFF stream:\n");
  std::printf("  probe rounds (Algorithm 1 gap detections): %llu\n",
              static_cast<unsigned long long>(st.probe_rounds));
  std::printf("  delay-based window reductions (Eq. 3):     %llu\n",
              static_cast<unsigned long long>(st.delay_backoffs));
  std::printf("  retransmissions / timeouts:                %llu / %llu\n",
              static_cast<unsigned long long>(st.retransmitted_packets),
              static_cast<unsigned long long>(st.timeouts));

  // Completion time per train: the application-visible metric.
  stats::Summary act;
  for (const auto& t : st.completed_message_times()) act.add(t.to_millis());
  if (!act.empty()) {
    std::printf("  train completion: mean %.2f ms, min %.2f, max %.2f (n=%llu)\n",
                act.mean(), act.min(), act.max(),
                static_cast<unsigned long long>(act.count()));
  }
  return 0;
}
