// Ablation of TCP-TRIM's two mechanisms (DESIGN.md §7): inter-train
// probing (Algorithm 1) and delay-based queue control (Algorithm 2's
// Eq. 3), plus a sweep of the K threshold around the Eq. 22 guideline.
// Not a paper figure — it isolates which mechanism buys which result.
#include <cstdio>
#include <optional>

#include "bench_util.hpp"
#include "exp/experiment.hpp"
#include "exp/impairment_scenario.hpp"
#include "core/k_guideline.hpp"
#include "core/sender_factory.hpp"
#include "http/lpt_source.hpp"
#include "stats/table.hpp"
#include "topo/many_to_one.hpp"

using namespace trim;

namespace {

struct AblationOutcome {
  std::uint64_t timeouts = 0;
  std::uint64_t drops = 0;
  double max_queue = 0.0;
  double last_done_s = 0.0;
  obs::TelemetrySnapshot telemetry;
};

// The Fig. 4/6 impairment scenario with hand-built TRIM senders so the
// ablation flags can be toggled.
AblationOutcome run_ablated(bool probe, bool queue_control, std::uint64_t seed) {
  exp::World world;
  sim::Rng rng{seed};
  topo::ManyToOneConfig topo_cfg;
  const auto topo = build_many_to_one(world.network, topo_cfg);

  stats::TimeSeries queue_trace;
  topo.bottleneck->queue().set_length_trace(&queue_trace);

  core::ProtocolOptions opts;
  opts.trim = core::TrimConfig::for_link(topo_cfg.link_bps, opts.tcp.mss);
  opts.trim.probe_on_gap = probe;
  opts.trim.queue_control = queue_control;

  std::vector<tcp::Flow> flows;
  for (int i = 0; i < topo_cfg.num_servers; ++i) {
    flows.push_back(core::make_protocol_flow(world.network, *topo.servers[i],
                                             *topo.front_end, tcp::Protocol::kTrim,
                                             opts));
  }
  // 200 small responses then an LPT at 0.5 s, as in Sec. II-B.
  for (auto& flow : flows) {
    sim::SimTime t = sim::SimTime::seconds(0.1);
    auto* sender = flow.sender.get();
    for (int r = 0; r < 200; ++r) {
      const auto bytes = static_cast<std::uint64_t>(rng.uniform_int(2048, 10240));
      world.simulator.schedule_at(t, [sender, bytes] { sender->write(bytes); });
      t += rng.exponential_time(sim::SimTime::millis(1));
    }
    world.simulator.schedule_at(sim::SimTime::seconds(0.5),
                                [sender] { sender->write(100 * 1460); });
  }
  world.simulator.run_until(sim::SimTime::seconds(1.5));

  AblationOutcome out;
  for (auto& flow : flows) {
    out.timeouts += flow.sender->stats().timeouts;
    for (const auto& m : flow.sender->stats().messages()) {
      if (m.done()) out.last_done_s = std::max(out.last_done_s, m.completed->to_seconds());
    }
  }
  out.drops = world.network.total_drops();
  out.max_queue = queue_trace.empty() ? 0.0 : queue_trace.max_value();
  out.telemetry = world.telemetry_snapshot();
  return out;
}

}  // namespace

int main() {
  exp::print_banner("Ablation — which TRIM mechanism buys what",
                    "Sec. III design choices (not a paper figure)");

  obs::RunReport report{"ablation_trim"};
  obs::TelemetrySnapshot tele;
  stats::Table table{{"probe (Alg.1)", "queue ctl (Eq.3)", "timeouts", "drops",
                      "max queue", "all done by (s)"}};
  for (bool probe : {false, true}) {
    for (bool qc : {false, true}) {
      const auto r = run_ablated(probe, qc, exp::run_seed(0xAB1A, 0));
      table.add_row({probe ? "on" : "off", qc ? "on" : "off",
                     stats::Table::integer(static_cast<long long>(r.timeouts)),
                     stats::Table::integer(static_cast<long long>(r.drops)),
                     stats::Table::num(r.max_queue, 0),
                     stats::Table::num(r.last_done_s, 3)});
      tele.merge(r.telemetry);
      report.add_row(std::string("probe_") + (probe ? "on" : "off") + "_qc_" +
                         (qc ? "on" : "off"),
                     {{"timeouts", static_cast<double>(r.timeouts)},
                      {"drops", static_cast<double>(r.drops)},
                      {"max_queue", r.max_queue},
                      {"probe_enters",
                       static_cast<double>(
                           r.telemetry.events[obs::EventKind::kTrimProbeEnter])},
                      {"eq3_cuts",
                       static_cast<double>(
                           r.telemetry.events[obs::EventKind::kTrimQueueCutEq3])}});
    }
  }
  table.print();
  report.set_telemetry(std::move(tele));
  bench::finish_report(report);
  std::printf(
      "expected: probing kills the window-inheritance burst (timeouts at the\n"
      "0.5 s LPT); queue control keeps the standing queue shallow during the\n"
      "response phase; both together reproduce Fig. 6.\n\n");

  // K sweep around the Eq. 22 guideline in the Fig. 9 properties scenario.
  //
  // The sweep is anchored at the K a *running* TRIM sender derives from
  // its measured min RTT — not at K(D_wire): with N concurrent flows the
  // measurable RTT floor includes the serialization of the other flows'
  // packets, so K computed from the idle-wire D sits below the noise
  // floor and pins every window at the minimum (a packetization effect
  // the fluid model of Sec. III-B does not cover). The paper's
  // implementation measures min_RTT live and so lands on the working
  // anchor automatically.
  const double c_pps = core::packets_per_second(net::kGbps, 1460);
  const auto k_star = [&] {
    exp::World world;
    topo::ManyToOneConfig topo_cfg;
    const auto topo = build_many_to_one(world.network, topo_cfg);
    auto opts = exp::default_options(tcp::Protocol::kTrim, topo_cfg.link_bps,
                                     sim::SimTime::millis(200));
    auto flow = core::make_protocol_flow(world.network, *topo.servers[0],
                                         *topo.front_end, tcp::Protocol::kTrim, opts);
    http::LptSource src{&world.simulator, flow.sender.get()};
    src.run(sim::SimTime::zero(), sim::SimTime::millis(50));
    world.simulator.run_until(sim::SimTime::millis(60));
    return dynamic_cast<core::TrimSender*>(flow.sender.get())->k_threshold();
  }();
  std::printf("dynamically measured Eq. 22 K for this path: %.0f us\n",
              k_star.to_micros());

  stats::Table ksweep{{"K (us)", "vs guideline", "AQL (pkts)", "drops",
                       "goodput (Mbps)"}};
  for (double factor : {0.5, 0.75, 1.0, 1.5, 2.5, 4.0}) {
    // Re-run the properties scenario with a fixed K override by building
    // it inline (the scenario helper always uses Eq. 22).
    exp::World world;
    topo::ManyToOneConfig topo_cfg;
    const auto topo = build_many_to_one(world.network, topo_cfg);
    stats::TimeSeries queue_trace;
    topo.bottleneck->queue().set_length_trace(&queue_trace);

    core::ProtocolOptions opts;
    opts.trim.capacity_pps = c_pps;
    opts.trim.k_override = k_star.scaled(factor);

    stats::RateMeter goodput{sim::SimTime::millis(10)};
    std::vector<tcp::Flow> flows;
    std::vector<std::unique_ptr<http::LptSource>> sources;
    for (int i = 0; i < 5; ++i) {
      flows.push_back(core::make_protocol_flow(world.network, *topo.servers[i],
                                               *topo.front_end, tcp::Protocol::kTrim,
                                               opts));
      auto* sim_ptr = &world.simulator;
      flows.back().receiver->set_deliver_callback(
          [&goodput, sim_ptr](std::uint64_t bytes) {
            goodput.add(sim_ptr->now(), bytes);
          });
      sources.push_back(std::make_unique<http::LptSource>(&world.simulator,
                                                          flows.back().sender.get()));
      sources.back()->run(sim::SimTime::seconds(0.1), sim::SimTime::seconds(0.9));
    }
    world.simulator.run_until(sim::SimTime::seconds(1.0));

    ksweep.add_row(
        {stats::Table::num(k_star.scaled(factor).to_micros(), 0),
         stats::Table::num(factor, 2) + "x",
         stats::Table::num(queue_trace.time_weighted_mean(), 1),
         stats::Table::integer(static_cast<long long>(world.network.total_drops())),
         stats::Table::num(
             goodput.mean_mbps(sim::SimTime::seconds(0.1), sim::SimTime::seconds(0.9)),
             0)});
  }
  ksweep.print();
  std::printf(
      "expected: K below the guideline starves the queue and loses goodput;\n"
      "K far above it rebuilds a standing queue (drops return at the extreme).\n");
  return 0;
}
