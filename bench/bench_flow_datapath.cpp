// Microbenchmarks of the per-flow data path: ACK-processing throughput on
// a long persistent connection, sender accounting memory as the stream
// grows, receiver reassembly churn under heavy reordering, and a 4x-scale
// Fig. 8 run — the numbers that decide whether per-flow state stays O(1)
// as persistent-connection runs get longer and wider.
//
// Hand-rolled timing (not google-benchmark) so every scenario lands in
// the "perf" section of REPORT_flow_datapath.json, with peak RSS attached.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "exp/experiment.hpp"
#include "exp/large_scale_scenario.hpp"
#include "http/response_stream.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "net/queue.hpp"
#include "sim/simulator.hpp"
#include "tcp/reno.hpp"
#include "tcp/tcp_receiver.hpp"

using namespace trim;

namespace {

// Two directly linked hosts, clean unbounded queues — the minimal rig for
// isolating transport-layer cost from fabric contention.
struct HostPair {
  explicit HostPair(std::uint64_t bps = 10'000'000'000ull,
                    sim::SimTime delay = sim::SimTime::micros(10))
      : ab{&sim, "a->b", bps, delay, net::make_queue(net::QueueConfig{})},
        ba{&sim, "b->a", bps, delay, net::make_queue(net::QueueConfig{})} {
    ab.set_peer(&b);
    ba.set_peer(&a);
    a.attach_link(&ab);
    b.attach_link(&ba);
  }
  sim::Simulator sim;
  net::Host a{&sim, 0, "a"};
  net::Host b{&sim, 1, "b"};
  net::Link ab, ba;
};

// Discards the ACKs the reassembly scenario generates.
struct AckSink : net::Agent {
  void on_packet(const net::Packet&) override {}
};

// One Reno connection on a fresh directly linked pair, fed by a zero-gap
// ResponseStream: each message of `bytes` is written from inside the
// previous one's completion, so at most one is outstanding.
struct BackToBack {
  explicit BackToBack(std::uint64_t bytes)
      : stream{&net.sim, &sender, [bytes] { return bytes; },
               [] { return sim::SimTime::zero(); }} {}

  // Streams `messages` messages to the end; returns the wall seconds.
  double run(int messages) {
    stream.run(sim::SimTime::zero(), sim::SimTime::max(),
               static_cast<std::uint64_t>(messages));
    const auto t0 = std::chrono::steady_clock::now();
    net.sim.run();
    return bench::seconds_since(t0);
  }

  static tcp::TcpConfig wide_start() {
    tcp::TcpConfig cfg;
    cfg.initial_cwnd = 64.0;
    return cfg;
  }

  HostPair net;
  tcp::TcpReceiver recv{&net.b, 1, net.a.id()};
  tcp::RenoSender sender{&net.a, net.b.id(), 1, wide_start()};
  http::ResponseStream stream;
};

// ACK-processing throughput: one persistent connection carries a long
// chain of messages with non-MSS tails (the segment->byte mapping's worst
// case); reports cumulatively-acked segments per wall second. The case
// runs 7 times (3 under REPRO_QUICK), each on a fresh pair; the row is the
// median rate, with the min and max beside it.
void bench_ack_processing(obs::RunReport& report) {
  const int kMessages = 6000;
  const std::uint64_t kMsgBytes = 34 * 1460 + 700;  // 35 segments, short tail
  const int reps = exp::quick_mode() ? 3 : 7;

  std::vector<double> rates;
  double acked = 0.0;
  for (int r = 0; r < reps; ++r) {
    BackToBack b2b{kMsgBytes};
    const double wall = b2b.run(kMessages);
    acked = static_cast<double>(b2b.sender.stats().acked_segments);
    rates.push_back(acked / wall);
  }
  std::sort(rates.begin(), rates.end());
  const double median = rates[rates.size() / 2];

  std::printf("ack_processing:   %10.0f acked segs/s  (median of %d, min %.0f, max %.0f; "
              "%d msgs)\n",
              median, reps, rates.front(), rates.back(), kMessages);
  report.add_perf("ack_processing", median,
                  {{"messages", static_cast<double>(kMessages)},
                   {"segments_acked", acked},
                   {"min", rates.front()},
                   {"max", rates.back()}});
}

// Sender throughput on a long stream: one flow streams ~1 GB as LPT-style
// 512 KB messages (at most one outstanding). That the accounting stays
// O(outstanding messages) is pinned by tests/mem/ring_buffer_test.cpp
// (the capacity stops growing) and the zero-allocation gate.
void bench_sender_memory(obs::RunReport& report) {
  const int kMessages = 2048;
  const std::uint64_t kMsgBytes = 512 * 1024 + 300;  // short tail
  BackToBack b2b{kMsgBytes};
  const double wall = b2b.run(kMessages);

  const double mb = static_cast<double>(b2b.sender.bytes_written()) / (1024.0 * 1024.0);
  std::printf("sender_memory:    %10.1f MB/s          (%.0f MB stream)\n", mb / wall, mb);
  report.add_perf("sender_memory", mb / wall, {{"stream_mb", mb}});
}

// Reassembly churn: the receiver absorbs rounds of a 64-segment window
// arriving entirely out of order (head last), the drain pattern loss
// recovery produces. Reports data packets absorbed per wall second.
void bench_reassembly(obs::RunReport& report) {
  HostPair net;
  AckSink sink;
  net.a.register_agent(1, &sink);
  tcp::TcpReceiver recv{&net.b, 1, net.a.id()};

  const std::uint64_t kWindow = 64;
  const int kRounds = 20000;
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t base = 0;
  for (int r = 0; r < kRounds; ++r) {
    for (std::uint64_t s = 1; s < kWindow; ++s) {
      net::Packet p;
      p.dst = net.b.id();
      p.flow = 1;
      p.seq = base + s;
      p.payload_bytes = 1460;
      p.ts = net.sim.now();
      recv.on_packet(p);
    }
    net::Packet head;
    head.dst = net.b.id();
    head.flow = 1;
    head.seq = base;
    head.payload_bytes = 700;
    head.ts = net.sim.now();
    recv.on_packet(head);  // drains the whole window
    base += kWindow;
    net.sim.run();  // flush the generated ACK burst
  }
  const double wall = bench::seconds_since(t0);
  const double pkts = static_cast<double>(recv.received_data_packets());
  std::printf("reassembly:       %10.0f ooo pkts/s    (%d rounds of %llu)\n",
              pkts / wall, kRounds, static_cast<unsigned long long>(kWindow));
  report.add_perf("reassembly", pkts / wall,
                  {{"rounds", static_cast<double>(kRounds)},
                   {"window_segments", static_cast<double>(kWindow)}});
  net.a.unregister_agent(1);
}

// 4x the paper's largest Fig. 8 point: 100 ToR switches x 42 servers =
// 4200 concurrent flows through one front end. The scale target for the
// O(1) data path: wall time and peak RSS are the before/after numbers in
// docs/MODELING.md.
void bench_large_scale_4x(obs::RunReport& report) {
  exp::LargeScaleConfig cfg;
  cfg.protocol = tcp::Protocol::kReno;
  cfg.num_switches = 100;  // 4200 servers vs the paper's 1050 max
  cfg.seed = exp::run_seed(0xF10D, 0);

  const auto t0 = std::chrono::steady_clock::now();
  const auto r = run_large_scale(cfg);
  const double wall = bench::seconds_since(t0);

  std::printf("large_scale_4x:   %10.1f s wall        (%d/%d SPTs, ACT %.2f ms, %llu drops, peak RSS %.1f MB)\n",
              wall, r.completed_spts, r.total_spts, r.spt_act_ms,
              static_cast<unsigned long long>(r.drops),
              obs::peak_rss_bytes() / (1024.0 * 1024.0));
  report.add_perf("large_scale_4x", static_cast<double>(r.completed_spts) / wall,
                  {{"servers", 4200.0},
                   {"wall_seconds", wall},
                   {"completed_spts", static_cast<double>(r.completed_spts)},
                   {"spt_act_ms", r.spt_act_ms},
                   {"drops", static_cast<double>(r.drops)}});
}

}  // namespace

int main() {
  exp::print_banner("Flow data-path microbench — ACK throughput, state bytes, reassembly",
                    "engine scaling (no paper figure)");
  obs::RunReport report{"flow_datapath"};
  bench_ack_processing(report);
  bench_sender_memory(report);
  bench_reassembly(report);
  bench_large_scale_4x(report);
  bench::finish_report(report);
  std::printf("\nwrote REPORT_flow_datapath.json (peak RSS %.1f MB)\n",
              obs::peak_rss_bytes() / (1024.0 * 1024.0));
  return 0;
}
