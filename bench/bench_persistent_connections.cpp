// Motivation quantified (paper Sec. I / II-B-1): "if it has to build a new
// TCP connection for each response, the massive operation for connection
// setup and teardown will waste the network bandwidth and system
// resources". This bench serves the same stream of HTTP responses two
// ways and measures what persistence buys:
//   * persistent — one connection, window inherited across responses;
//   * per-request — a fresh connection per response: three-way handshake
//     plus slow start from the initial window every time.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "core/sender_factory.hpp"
#include "exp/experiment.hpp"
#include "http/response_stream.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "topo/many_to_one.hpp"

using namespace trim;

namespace {

struct StreamResult {
  double arct_ms = 0.0;
  double max_ms = 0.0;
  std::uint64_t wire_packets = 0;  // total packets on the data path
  obs::TelemetrySnapshot telemetry;
};

// Serve `count` responses of `bytes` each, spaced by `gap` after the
// previous completion.
StreamResult run_persistent(tcp::Protocol protocol, int count, std::uint64_t bytes,
                            sim::SimTime gap) {
  exp::World world;
  topo::ManyToOneConfig topo_cfg;
  topo_cfg.num_servers = 1;
  const auto topo = build_many_to_one(world.network, topo_cfg);
  const auto opts = exp::default_options(protocol, topo_cfg.link_bps,
                                         sim::SimTime::millis(200));
  auto flow = core::make_protocol_flow(world.network, *topo.servers[0],
                                       *topo.front_end, protocol, opts);
  auto* sender = flow.sender.get();
  http::ResponseStream stream{&world.simulator, sender, [bytes] { return bytes; },
                              [gap] { return gap; }};
  stream.run(sim::SimTime::zero(), sim::SimTime::max(),
             static_cast<std::uint64_t>(count));
  world.simulator.run_until(sim::SimTime::seconds(60));

  StreamResult out;
  stats::Summary act;
  for (const auto& t : sender->stats().completed_message_times()) act.add(t.to_millis());
  out.arct_ms = act.mean();
  out.max_ms = act.max();
  out.wire_packets = sender->stats().data_packets_sent;
  out.telemetry = world.telemetry_snapshot();
  return out;
}

StreamResult run_per_request(tcp::Protocol protocol, int count, std::uint64_t bytes,
                             sim::SimTime gap) {
  exp::World world;
  topo::ManyToOneConfig topo_cfg;
  topo_cfg.num_servers = 1;
  const auto topo = build_many_to_one(world.network, topo_cfg);
  auto opts = exp::default_options(protocol, topo_cfg.link_bps,
                                   sim::SimTime::millis(200));
  opts.tcp.simulate_handshake = true;

  std::vector<tcp::Flow> flows;
  flows.reserve(count);
  StreamResult out;
  stats::Summary act;

  // Completion-chained: each response gets its own fresh connection.
  std::function<void()> next = [&] {
    flows.push_back(core::make_protocol_flow(world.network, *topo.servers[0],
                                             *topo.front_end, protocol, opts));
    auto* sender = flows.back().sender.get();
    sender->add_message_complete_callback(
        [&](std::uint64_t, sim::SimTime now) {
          if (static_cast<int>(flows.size()) < count) {
            world.simulator.schedule_at(now + gap, [&] { next(); });
          }
        });
    sender->write(bytes);
  };
  next();
  world.simulator.run_until(sim::SimTime::seconds(60));

  for (const auto& flow : flows) {
    for (const auto& t : flow.sender->stats().completed_message_times()) {
      act.add(t.to_millis());
    }
    // +1 SYN per connection on the wire.
    out.wire_packets += flow.sender->stats().data_packets_sent + 1;
  }
  out.arct_ms = act.mean();
  out.max_ms = act.max();
  out.telemetry = world.telemetry_snapshot();
  return out;
}

}  // namespace

int main() {
  exp::print_banner("Motivation — persistent vs per-request connections",
                    "Sec. I / II-B-1 (quantifies the persistence premise)");

  const int count = exp::quick_mode() ? 40 : 150;
  const auto gap = sim::SimTime::millis(2);

  obs::RunReport report{"persistent_connections"};
  obs::TelemetrySnapshot tele;
  for (std::uint64_t bytes : {8ull << 10, 64ull << 10}) {
    std::printf("response size %llu KB, %d responses, 2 ms think time:\n",
                static_cast<unsigned long long>(bytes >> 10), count);
    stats::Table table{{"mode", "protocol", "ARCT (ms)", "max (ms)", "wire pkts"}};
    for (auto protocol : {tcp::Protocol::kReno, tcp::Protocol::kTrim}) {
      const auto persistent = run_persistent(protocol, count, bytes, gap);
      const auto fresh = run_per_request(protocol, count, bytes, gap);
      table.add_row({"persistent", tcp::to_string(protocol),
                     stats::Table::num(persistent.arct_ms, 3),
                     stats::Table::num(persistent.max_ms, 3),
                     stats::Table::integer(static_cast<long long>(persistent.wire_packets))});
      table.add_row({"per-request", tcp::to_string(protocol),
                     stats::Table::num(fresh.arct_ms, 3),
                     stats::Table::num(fresh.max_ms, 3),
                     stats::Table::integer(static_cast<long long>(fresh.wire_packets))});
      tele.merge(persistent.telemetry);
      tele.merge(fresh.telemetry);
      const std::string label =
          std::to_string(bytes >> 10) + "kb_" + tcp::to_string(protocol);
      report.add_row("persistent_" + label,
                     {{"arct_ms", persistent.arct_ms},
                      {"wire_pkts", static_cast<double>(persistent.wire_packets)}});
      report.add_row("per_request_" + label,
                     {{"arct_ms", fresh.arct_ms},
                      {"wire_pkts", static_cast<double>(fresh.wire_packets)}});
    }
    table.print();
    std::printf("\n");
  }
  report.set_telemetry(std::move(tele));
  bench::finish_report(report);
  std::printf(
      "expected: per-request pays one handshake RTT plus a fresh slow start\n"
      "per response (worst for the larger responses); persistence avoids\n"
      "both — and TCP-TRIM keeps persistence safe under congestion, which is\n"
      "the paper's whole point.\n");
  return 0;
}
