// Microbenchmarks of the simulation substrate (google-benchmark): event
// queue throughput, link pipeline cost, and end-to-end packets/second of a
// full TCP incast — the numbers that bound how large a Fig. 8/12 sweep can
// be run on a laptop.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/sender_factory.hpp"
#include "exp/experiment.hpp"
#include "exp/large_scale_scenario.hpp"
#include "exp/parallel_runner.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/simulator.hpp"
#include "topo/many_to_one.hpp"

using namespace trim;

// Global allocation counter: every operator new in the process ticks it.
// The allocation benchmarks snapshot it around the measured region to
// prove the event path stays heap-free in steady state.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

void BM_EventQueuePushPop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::CalendarQueue q;
    for (int i = 0; i < n; ++i) {
      q.push(sim::SimTime::nanos((i * 7919) % 100000), [] {});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(state.iterations() * n * 2);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1000)->Arg(100000);

void BM_SimulatorTimerChain(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int remaining = static_cast<int>(state.range(0));
    std::function<void()> tick = [&] {
      if (--remaining > 0) sim.schedule(sim::SimTime::nanos(10), tick);
    };
    sim.schedule(sim::SimTime::nanos(10), tick);
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorTimerChain)->Arg(10000);

void BM_EventCancellation(benchmark::State& state) {
  for (auto _ : state) {
    sim::CalendarQueue q;
    std::vector<sim::EventId> ids;
    ids.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
      ids.push_back(q.push(sim::SimTime::nanos(i), [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) q.cancel(ids[i]);
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventCancellation);

// The per-ACK pattern TCP senders generate: every ACK cancels the pending
// RTO timer and schedules a new one further out, against a backlog of
// other flows' timers. With lazy cancellation each round grew the
// tombstone set; the wheel removes entries for real, in O(1).
void BM_RtoReschedule(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  sim::CalendarQueue q;
  std::vector<sim::EventId> timers(flows);
  std::int64_t t = 0;
  for (int f = 0; f < flows; ++f) {
    timers[f] = q.push(sim::SimTime::nanos(t + 200 + f), [] {});
  }
  int f = 0;
  for (auto _ : state) {
    ++t;
    q.cancel(timers[f]);
    timers[f] = q.push(sim::SimTime::nanos(t + 200 + f), [] {});
    f = (f + 1) % flows;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RtoReschedule)->Arg(100)->Arg(10000);

// Steady-state allocation count of the schedule/dispatch cycle: a churning
// queue with Packet-sized captures must stop allocating once its pools are
// warm. Reported as allocations per push+pop pair (expected: 0).
void BM_EventPathAllocations(benchmark::State& state) {
  struct FakePacketCapture {  // same footprint as the link pipeline's capture
    unsigned char bytes[56];
    void* link;
  };
  sim::CalendarQueue q;
  FakePacketCapture cap{};
  std::int64_t t = 0;
  for (int i = 0; i < 64; ++i) {  // warm the slot pool and heap vector
    q.push(sim::SimTime::nanos(++t), [cap] { benchmark::DoNotOptimize(&cap); });
  }
  std::uint64_t ops = 0;
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    q.push(sim::SimTime::nanos(++t), [cap] { benchmark::DoNotOptimize(&cap); });
    auto popped = q.pop();
    popped.cb();
    ++ops;
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  state.counters["allocs_per_op"] =
      benchmark::Counter(static_cast<double>(after - before) /
                         static_cast<double>(ops == 0 ? 1 : ops));
  state.SetItemsProcessed(static_cast<int64_t>(ops));
}
BENCHMARK(BM_EventPathAllocations);

// Full-stack cost: an N-to-1 incast of 1 MB flows; reports simulated
// packets per wall second.
void BM_IncastEndToEnd(benchmark::State& state) {
  const int servers = static_cast<int>(state.range(0));
  std::uint64_t packets = 0;
  for (auto _ : state) {
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
  state.SetItemsProcessed(static_cast<int64_t>(packets) * 2);  // data + acks
  state.SetLabel("simulated packets (data+ack)");
}
BENCHMARK(BM_IncastEndToEnd)->Arg(5)->Arg(20);

// Wall-clock scaling of the parallel sweep runner: a fixed batch of eight
// small Fig. 8-style runs executed at the given worker width. Compare the
// jobs=1 and jobs=hw rows for the speedup (on an N-core box the batch
// time should drop ~Nx until width exceeds cores). Output order is
// deterministic at every width, so the checksum is width-invariant.
void BM_ParallelSweep(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
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
  double checksum = 0;
  for (auto _ : state) {
    std::vector<exp::LargeScaleResult> results(cfgs.size());
    exp::for_each_index(cfgs.size(), jobs, [&](std::size_t i) {
      results[i] = run_large_scale(cfgs[i]);
    });
    checksum = 0;
    for (const auto& r : results) checksum += r.spt_act_ms;
    benchmark::DoNotOptimize(checksum);
  }
  state.counters["sweep_act_sum_ms"] = benchmark::Counter(checksum);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(cfgs.size()));
}
BENCHMARK(BM_ParallelSweep)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
