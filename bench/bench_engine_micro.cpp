// Microbenchmarks of the simulation substrate: event queue throughput,
// timer cancellation, the allocation count of the event path, end-to-end
// packets/second of a full TCP incast, and the parallel sweep runner's
// wall-clock scaling — the numbers that bound how large a Fig. 8/12 sweep
// can be run on a laptop.
//
// Each case does a fixed amount of work (less under REPRO_QUICK), timed
// by hand, and writes one row into the "perf" section of
// REPORT_engine_micro.json: items per second, wall seconds, the item
// count, and a checksum over the case's results, so no timed loop is dead
// code. The sweep's checksum is deterministic and the same at every
// worker width; it also goes into "rows".
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/sender_factory.hpp"
#include "exp/experiment.hpp"
#include "exp/large_scale_scenario.hpp"
#include "exp/parallel_runner.hpp"
#include "mem/alloc_hooks.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/simulator.hpp"
#include "topo/many_to_one.hpp"

using namespace trim;

namespace {

// Work multiplier of the queue and incast cases: full runs do ten times
// the quick work.
int scale() { return exp::quick_mode() ? 1 : 10; }

void record(obs::RunReport& report, const std::string& scenario, double items,
            double wall, double checksum,
            std::vector<std::pair<std::string, double>> extra = {}) {
  std::printf("%-24s %10.4g items/s  (%.4g items in %.3f s)\n", scenario.c_str(),
              items / wall, items, wall);
  extra.insert(extra.begin(), {{"wall_s", wall}, {"items", items}, {"checksum", checksum}});
  report.add_perf(scenario, items / wall, std::move(extra));
}

// Push n events at scattered times, then pop them all; items are pushes
// plus pops.
void bench_push_pop(obs::RunReport& report, int n) {
  const int rounds = (n <= 1000 ? 200 : 2) * scale();
  double checksum = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    sim::CalendarQueue q;
    for (int i = 0; i < n; ++i) {
      q.push(sim::SimTime::nanos((i * 7919) % 100000), [] {});
    }
    while (!q.empty()) checksum += static_cast<double>(q.pop().at.ns());
  }
  const double wall = bench::seconds_since(t0);
  record(report, "push_pop_" + std::to_string(n),
         2.0 * static_cast<double>(rounds) * n, wall, checksum);
}

// A chain of 10,000 self-rescheduling timers through the Simulator.
void bench_timer_chain(obs::RunReport& report) {
  constexpr int kChain = 10000;
  const int rounds = 20 * scale();
  double checksum = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    sim::Simulator sim;
    int remaining = kChain;
    std::function<void()> tick = [&] {
      if (--remaining > 0) sim.schedule(sim::SimTime::nanos(10), tick);
    };
    sim.schedule(sim::SimTime::nanos(10), tick);
    sim.run();
    checksum += static_cast<double>(sim.now().ns());
  }
  const double wall = bench::seconds_since(t0);
  record(report, "timer_chain_10000", static_cast<double>(rounds) * kChain, wall,
         checksum);
}

// Push 10,000 events, cancel every other one, pop the rest; items are the
// pushed events.
void bench_cancellation(obs::RunReport& report) {
  constexpr int kEvents = 10000;
  const int rounds = 20 * scale();
  double checksum = 0;
  std::vector<sim::EventId> ids;
  ids.reserve(kEvents);
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    sim::CalendarQueue q;
    ids.clear();
    for (int i = 0; i < kEvents; ++i) {
      ids.push_back(q.push(sim::SimTime::nanos(i), [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) q.cancel(ids[i]);
    while (!q.empty()) checksum += static_cast<double>(q.pop().at.ns());
  }
  const double wall = bench::seconds_since(t0);
  record(report, "cancellation_10000", static_cast<double>(rounds) * kEvents, wall,
         checksum);
}

// The per-ACK pattern TCP senders generate: every ACK cancels the pending
// RTO timer and schedules a new one further out, against a backlog of
// other flows' timers. The wheel removes entries for real, in O(1).
void bench_rto_reschedule(obs::RunReport& report, int flows) {
  const std::int64_t ops = 200'000 * static_cast<std::int64_t>(scale());
  sim::CalendarQueue q;
  std::vector<sim::EventId> timers(static_cast<std::size_t>(flows));
  std::int64_t t = 0;
  for (int f = 0; f < flows; ++f) {
    timers[f] = q.push(sim::SimTime::nanos(t + 200 + f), [] {});
  }
  int f = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < ops; ++i) {
    ++t;
    q.cancel(timers[f]);
    timers[f] = q.push(sim::SimTime::nanos(t + 200 + f), [] {});
    f = (f + 1) % flows;
  }
  const double wall = bench::seconds_since(t0);
  record(report, "rto_reschedule_" + std::to_string(flows),
         static_cast<double>(ops), wall, static_cast<double>(q.next_time().ns()));
}

// Allocation count of the schedule/dispatch cycle: a churning queue with
// Packet-sized captures, counted by the trim_alloc_hook operator
// new/delete linked into this binary. It is not 0: the counted window
// reaches wheel buckets the 64-event warm-up never touched, and each
// allocates its vector on first use (CalendarQueue::bucket_insert). On
// x86-64 that is 211 allocations whether the window is 0.1, 1, 10 or 40 M
// push+pop pairs, so allocs_per_op reads ~2e-5 at full size and ~2e-4
// under REPRO_QUICK; "allocs" is the count itself.
void bench_event_path(obs::RunReport& report) {
  struct FakePacketCapture {  // same footprint as the link pipeline's capture
    unsigned char bytes[56];
    std::uint64_t* sum;
  };
  const std::int64_t ops = 1'000'000 * static_cast<std::int64_t>(scale());
  sim::CalendarQueue q;
  std::uint64_t sum = 0;
  FakePacketCapture cap{{}, &sum};
  cap.bytes[0] = 1;
  std::int64_t t = 0;
  for (int i = 0; i < 64; ++i) {  // warm the slot pool and heap vector
    q.push(sim::SimTime::nanos(++t), [cap] { *cap.sum += cap.bytes[0]; });
  }
  mem::reset_alloc_counts();
  mem::set_alloc_counting(true);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < ops; ++i) {
    q.push(sim::SimTime::nanos(++t), [cap] { *cap.sum += cap.bytes[0]; });
    q.pop().cb();
  }
  const double wall = bench::seconds_since(t0);
  mem::set_alloc_counting(false);
  const auto allocs = static_cast<double>(mem::alloc_totals().allocs);
  const double allocs_per_op = allocs / static_cast<double>(ops);
  std::printf("event_path: %.4g allocations, %.3g per push+pop\n", allocs,
              allocs_per_op);
  record(report, "event_path", static_cast<double>(ops), wall,
         static_cast<double>(sum),
         {{"allocs", allocs}, {"allocs_per_op", allocs_per_op}});
}

// Full-stack cost: an N-to-1 TCP-TRIM incast of 1 MB flows; items are the
// simulated data and ACK packets.
void bench_incast(obs::RunReport& report, int servers) {
  const int rounds = 2 * scale();
  std::uint64_t packets = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    exp::World world;
    topo::ManyToOneConfig cfg;
    cfg.num_servers = servers;
    const auto topo = build_many_to_one(world.network, cfg);
    const auto opts = exp::default_options(tcp::Protocol::kTrim, cfg.link_bps,
                                           sim::SimTime::millis(200));
    std::vector<tcp::Flow> flows;
    for (int i = 0; i < servers; ++i) {
      flows.push_back(core::make_protocol_flow(world.network, *topo.servers[i],
                                               *topo.front_end, tcp::Protocol::kTrim,
                                               opts));
      flows.back().sender->write(1 << 20);
    }
    world.simulator.run_until(sim::SimTime::seconds(10));
    for (auto& f : flows) packets += f.sender->stats().data_packets_sent;
  }
  const double wall = bench::seconds_since(t0);
  const double items = static_cast<double>(packets) * 2;  // data + acks
  record(report, "incast_" + std::to_string(servers), items, wall, items);
}

// Wall-clock scaling of the parallel sweep runner: a fixed batch of eight
// small Fig. 8-style runs executed at the given worker width. Compare the
// jobs=1 and jobs=hw rows for the speedup (on an N-core box the batch
// time should drop ~Nx until width exceeds cores). Output order is
// deterministic at every width, so the checksum is width-invariant.
void bench_parallel_sweep(obs::RunReport& report, int jobs) {
  std::vector<exp::LargeScaleConfig> cfgs;
  for (int i = 0; i < 8; ++i) {
    exp::LargeScaleConfig cfg;
    cfg.num_switches = 2;
    cfg.servers_per_switch = 21;
    cfg.spt_window = sim::SimTime::seconds(0.2);
    cfg.drain = sim::SimTime::seconds(0.3);
    cfg.protocol = i % 2 == 0 ? tcp::Protocol::kReno : tcp::Protocol::kTrim;
    cfg.seed = exp::run_seed(0xBE4C, i);
    cfgs.push_back(cfg);
  }
  const int rounds = exp::quick_mode() ? 1 : 3;
  double checksum = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    std::vector<exp::LargeScaleResult> results(cfgs.size());
    exp::for_each_index(cfgs.size(), jobs, [&](std::size_t i) {
      results[i] = run_large_scale(cfgs[i]);
    });
    checksum = 0;
    for (const auto& res : results) checksum += res.spt_act_ms;
  }
  const double wall = bench::seconds_since(t0);
  const std::string scenario = "sweep_jobs" + std::to_string(jobs);
  record(report, scenario, static_cast<double>(rounds) * cfgs.size(), wall,
         checksum);
  report.add_row(scenario, {{"sweep_act_sum_ms", checksum}});
}

}  // namespace

int main() {
  if (!mem::alloc_hooks_active()) {
    std::fprintf(stderr,
                 "bench_engine_micro: allocation hook not linked; "
                 "allocs_per_op would lie\n");
    return 1;
  }
  obs::RunReport report{"engine_micro"};
  bench_push_pop(report, 1000);
  bench_push_pop(report, 100000);
  bench_timer_chain(report);
  bench_cancellation(report);
  bench_rto_reschedule(report, 100);
  bench_rto_reschedule(report, 10000);
  bench_event_path(report);
  bench_incast(report, 5);
  bench_incast(report, 20);
  for (int jobs : {1, 2, 4}) bench_parallel_sweep(report, jobs);
  bench::finish_report(report);
  return 0;
}
