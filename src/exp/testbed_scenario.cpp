#include "exp/testbed_scenario.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "exp/experiment.hpp"
#include "http/lpt_source.hpp"
#include "http/train_workload.hpp"
#include "stats/summary.hpp"
#include "topo/many_to_one.hpp"

namespace trim::exp {

namespace {

// Closed-loop response stream: sends `count` responses, each starting one
// think-time after the previous one completes (the serialized
// request/response pattern of a persistent HTTP connection).
class ResponseStream {
 public:
  using SizeSampler = std::function<std::uint64_t()>;
  using GapSampler = std::function<sim::SimTime()>;

  ResponseStream(sim::Simulator* sim, tcp::TcpSender* sender, int count,
                 SizeSampler size, GapSampler gap)
      : sim_{sim},
        sender_{sender},
        remaining_{count},
        size_{std::move(size)},
        gap_{std::move(gap)} {
    sender_->add_message_complete_callback([this](std::uint64_t, sim::SimTime now) {
      if (remaining_ > 0) sim_->schedule_at(now + gap_(), [this] { send_next(); });
    });
  }

  void start(sim::SimTime at) {
    sim_->schedule_at(at, [this] { send_next(); });
  }

 private:
  void send_next() {
    if (remaining_ <= 0) return;
    --remaining_;
    sender_->write(size_());
  }

  sim::Simulator* sim_;
  tcp::TcpSender* sender_;
  int remaining_;
  SizeSampler size_;
  GapSampler gap_;
};

}  // namespace

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
    inv.watch(*flows.back().sender);
    elephants.push_back(std::make_unique<http::LptSource>(
        &world.simulator, flows.back().sender.get(), 512 * 1024));
    elephants.back()->run(sim::SimTime::zero(), horizon);
  }

  // The response sender: 100 responses, mean size ±10%, closed loop.
  flows.push_back(core::make_protocol_flow(world.network,
                                           *topo.servers[cfg.background_senders],
                                           *topo.front_end, cfg.protocol, opts));
  auto* responder = flows.back().sender.get();
  inv.watch(*responder);
  const auto lo = static_cast<std::int64_t>(cfg.mean_response_bytes * 0.9);
  const auto hi = static_cast<std::int64_t>(cfg.mean_response_bytes * 1.1);
  ResponseStream stream{
      &world.simulator, responder, cfg.num_responses,
      [&rng, lo, hi] { return static_cast<std::uint64_t>(rng.uniform_int(lo, hi)); },
      [] { return ArctConfig::think_time; }};
  stream.start(sim::SimTime::seconds(0.5));  // after the elephants ramp up

  // Run in chunks and stop as soon as the response stream is done (the
  // elephants would otherwise keep the simulation busy to the horizon).
  for (auto t = sim::SimTime::seconds(1.0); t <= horizon; t += sim::SimTime::seconds(1.0)) {
    world.simulator.run_until(t);
    if (static_cast<int>(responder->stats().completed_message_times().size()) >=
        cfg.num_responses) {
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
  require(cfg.num_servers >= 1, "no servers", "WebServiceConfig::num_servers",
          ">= 1");
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
  std::vector<std::unique_ptr<ResponseStream>> streams;
  std::vector<sim::Rng> rngs;
  for (int i = 0; i < cfg.num_servers; ++i) rngs.push_back(rng.fork());

  for (int i = 0; i < cfg.num_servers; ++i) {
    flows.push_back(core::make_protocol_flow(world.network, *topo.servers[i],
                                             *topo.front_end, cfg.protocol, opts));
    inv.watch(*flows.back().sender);
    auto* r = &rngs[i];
    streams.push_back(std::make_unique<ResponseStream>(
        &world.simulator, flows.back().sender.get(), cfg.responses_per_server,
        [r, &size_cdf] {
          return static_cast<std::uint64_t>(std::max(size_cdf.sample(*r), 512.0));
        },
        [r, &gap_cdf] {
          return sim::SimTime::nanos(
              static_cast<std::int64_t>(gap_cdf.sample(*r) * 1000.0));
        }));
    streams.back()->start(sim::SimTime::millis(1) * (i + 1));
  }

  const int expected = cfg.num_servers * cfg.responses_per_server;
  for (auto t = sim::SimTime::seconds(1.0); t <= sim::SimTime::seconds(120.0);
       t += sim::SimTime::seconds(1.0)) {
    world.simulator.run_until(t);
    int done = 0;
    for (const auto& flow : flows) {
      done += static_cast<int>(flow.sender->stats().completed_message_times().size());
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
