#include "exp/testbed_scenario.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "exp/experiment.hpp"
#include "http/lpt_source.hpp"
#include "http/response_stream.hpp"
#include "http/train_workload.hpp"
#include "stats/summary.hpp"
#include "topo/many_to_one.hpp"

namespace trim::exp {

ArctResult run_arct(const ArctConfig& cfg) {
  require(cfg.num_responses >= 1, "no responses", "ArctConfig::num_responses",
          ">= 1");
  require(cfg.mean_response_bytes >= 1, "empty responses",
          "ArctConfig::mean_response_bytes", ">= 1");
  World world;
  sim::Rng rng{cfg.seed};

  topo::ManyToOneConfig topo_cfg;
  topo_cfg.num_servers = cfg.background_senders + 1;
  topo_cfg.link_bps = cfg.link_bps;
  topo_cfg.link_delay = sim::SimTime::micros(100);
  topo_cfg.switch_queue =
      switch_queue_for(cfg.protocol, topo_cfg.switch_buffer_pkts, cfg.link_bps);
  const auto topo = build_many_to_one(world.network, topo_cfg);

  const auto opts =
      default_options(cfg.protocol, cfg.link_bps, sim::SimTime::millis(200));

  // Background elephants saturate the bottleneck for the whole run.
  const auto horizon = sim::SimTime::seconds(120.0);
  InvariantScope inv{world};
  std::vector<tcp::Flow> flows;
  std::vector<std::unique_ptr<http::LptSource>> elephants;
  for (int i = 0; i < cfg.background_senders; ++i) {
    flows.push_back(core::make_protocol_flow(world.network, *topo.servers[i],
                                             *topo.front_end, cfg.protocol, opts));
    elephants.push_back(std::make_unique<http::LptSource>(
        &world.simulator, flows.back().sender.get(), 512 * 1024));
    elephants.back()->run(sim::SimTime::zero(), horizon);
  }

  // The response sender: 100 responses, mean size ±10%, closed loop.
  flows.push_back(core::make_protocol_flow(world.network,
                                           *topo.servers[cfg.background_senders],
                                           *topo.front_end, cfg.protocol, opts));
  auto* responder = flows.back().sender.get();
  const auto lo = static_cast<std::int64_t>(cfg.mean_response_bytes * 0.9);
  const auto hi = static_cast<std::int64_t>(cfg.mean_response_bytes * 1.1);
  http::ResponseStream stream{
      &world.simulator, responder,
      [&rng, lo, hi] { return static_cast<std::uint64_t>(rng.uniform_int(lo, hi)); },
      [] { return ArctConfig::think_time; }};
  // After the elephants ramp up.
  stream.run(sim::SimTime::seconds(0.5), sim::SimTime::max(),
             static_cast<std::uint64_t>(cfg.num_responses));

  // Run in chunks and stop as soon as the response stream is done (the
  // elephants would otherwise keep the simulation busy to the horizon).
  for (auto t = sim::SimTime::seconds(1.0); t <= horizon; t += sim::SimTime::seconds(1.0)) {
    world.simulator.run_until(t);
    if (static_cast<int>(responder->stats().completed_messages()) >= cfg.num_responses) {
      break;
    }
  }
  inv.finish();

  ArctResult result;
  stats::Summary summary;
  for (const auto& t : responder->stats().completed_message_times()) {
    summary.add(t.to_millis());
  }
  result.completed = static_cast<int>(summary.count());
  if (!summary.empty()) {
    result.arct_ms = summary.mean();
    result.max_ms = summary.max();
  }
  result.timeouts = responder->stats().timeouts;
  result.telemetry = world.telemetry_snapshot();
  return result;
}

WebServiceResult run_web_service(const WebServiceConfig& cfg) {
  require(cfg.responses_per_server >= 1, "no responses",
          "WebServiceConfig::responses_per_server", ">= 1");
  World world;
  InvariantScope inv{world};
  sim::Rng rng{cfg.seed};

  topo::ManyToOneConfig topo_cfg;
  topo_cfg.num_servers = cfg.num_servers;
  topo_cfg.link_bps = net::kGbps;  // paper: five 1 Gbps links
  topo_cfg.switch_queue =
      switch_queue_for(cfg.protocol, topo_cfg.switch_buffer_pkts, topo_cfg.link_bps);
  const auto topo = build_many_to_one(world.network, topo_cfg);

  const auto opts =
      default_options(cfg.protocol, topo_cfg.link_bps, sim::SimTime::millis(200));

  auto size_cdf = http::TrainWorkload::default_size_cdf();
  auto gap_cdf = http::TrainWorkload::default_gap_cdf();

  std::vector<tcp::Flow> flows;
  std::vector<std::unique_ptr<http::ResponseStream>> streams;
  std::vector<sim::Rng> rngs;
  for (int i = 0; i < cfg.num_servers; ++i) rngs.push_back(rng.fork());

  for (int i = 0; i < cfg.num_servers; ++i) {
    flows.push_back(core::make_protocol_flow(world.network, *topo.servers[i],
                                             *topo.front_end, cfg.protocol, opts));
    auto* r = &rngs[i];
    streams.push_back(std::make_unique<http::ResponseStream>(
        &world.simulator, flows.back().sender.get(),
        [r, &size_cdf] {
          return static_cast<std::uint64_t>(std::max(size_cdf.sample(*r), 512.0));
        },
        [r, &gap_cdf] {
          return sim::SimTime::nanos(
              static_cast<std::int64_t>(gap_cdf.sample(*r) * 1000.0));
        }));
    streams.back()->run(sim::SimTime::millis(1) * (i + 1), sim::SimTime::max(),
                        static_cast<std::uint64_t>(cfg.responses_per_server));
  }

  const int expected = cfg.num_servers * cfg.responses_per_server;
  for (auto t = sim::SimTime::seconds(1.0); t <= sim::SimTime::seconds(120.0);
       t += sim::SimTime::seconds(1.0)) {
    world.simulator.run_until(t);
    int done = 0;
    for (const auto& flow : flows) {
      done += static_cast<int>(flow.sender->stats().completed_messages());
    }
    if (done >= expected) break;
  }
  inv.finish();

  WebServiceResult result;
  result.total = cfg.num_servers * cfg.responses_per_server;
  stats::Summary summary;
  for (int i = 0; i < cfg.num_servers; ++i) {
    result.timeouts += flows[i].sender->stats().timeouts;
    for (const auto& m : flows[i].sender->stats().messages()) {
      if (!m.done()) continue;
      const double ms = m.completion_time().to_millis();
      result.samples.push_back({m.bytes, ms});
      result.completion_cdf_ms.add(ms);
      summary.add(ms);
    }
  }
  result.completed = static_cast<int>(summary.count());
  if (!summary.empty()) result.arct_ms = summary.mean();
  result.telemetry = world.telemetry_snapshot();
  return result;
}

stats::Cdf WebServiceResult::mid_band_ms() const {
  stats::Cdf cdf;
  for (const auto& s : samples) {
    if (s.bytes >= 64 * 1024 && s.bytes <= 256 * 1024) cdf.add(s.completion_ms);
  }
  return cdf;
}

}  // namespace trim::exp
