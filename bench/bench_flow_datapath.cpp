// Microbenchmarks of the per-flow data path: ACK-processing throughput on
// a long persistent connection, sender accounting memory as the stream
// grows, receiver reassembly churn under heavy reordering, and a 4x-scale
// Fig. 8 run — the numbers that decide whether per-flow state stays O(1)
// as persistent-connection runs get longer and wider.
//
// Hand-rolled timing (not google-benchmark) so every scenario lands in
// the "perf" section of REPORT_flow_datapath.json, with peak RSS attached.
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "exp/experiment.hpp"
#include "exp/large_scale_scenario.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "net/queue.hpp"
#include "sim/simulator.hpp"
#include "tcp/reno.hpp"
#include "tcp/tcp_receiver.hpp"

using namespace trim;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

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

// ACK-processing throughput: one persistent connection carries a long
// chain of messages with non-MSS tails (the segment->byte mapping's worst
// case); reports cumulatively-acked segments per wall second.
void bench_ack_processing(obs::RunReport& report) {
  HostPair net;
  tcp::TcpReceiver recv{&net.b, 1, net.a.id()};
  tcp::TcpConfig cfg;
  cfg.initial_cwnd = 64.0;
  tcp::RenoSender sender{&net.a, net.b.id(), 1, cfg};

  const int kMessages = 6000;
  const std::uint64_t kMsgBytes = 34 * 1460 + 700;  // 35 segments, short tail
  int written = 1;
  sender.add_message_complete_callback([&](std::uint64_t, sim::SimTime) {
    if (written < kMessages) {
      ++written;
      sender.write(kMsgBytes);
    }
  });

  const auto t0 = std::chrono::steady_clock::now();
  sender.write(kMsgBytes);
  net.sim.run();
  const double wall = seconds_since(t0);

  const double acked = static_cast<double>(sender.stats().acked_segments);
  std::printf("ack_processing:   %10.0f acked segs/s  (%d msgs, state %zu B)\n",
              acked / wall, kMessages, sender.datapath_state_bytes());
  report.add_perf("ack_processing", acked / wall,
                  {{"messages", static_cast<double>(kMessages)},
                   {"segments_acked", acked},
                   {"sender_state_bytes", static_cast<double>(sender.datapath_state_bytes())}});
}

// Sender accounting memory: one flow streams ~1 GB as LPT-style 512 KB
// messages (at most one outstanding). Per-flow accounting bytes must stay
// flat as the stream grows — this is the O(outstanding messages) claim.
void bench_sender_memory(obs::RunReport& report) {
  HostPair net;
  tcp::TcpReceiver recv{&net.b, 1, net.a.id()};
  tcp::TcpConfig cfg;
  cfg.initial_cwnd = 64.0;
  tcp::RenoSender sender{&net.a, net.b.id(), 1, cfg};

  const int kMessages = 2048;
  const std::uint64_t kMsgBytes = 512 * 1024 + 300;  // short tail
  int written = 1;
  std::size_t state_mid = 0;
  sender.add_message_complete_callback([&](std::uint64_t, sim::SimTime) {
    if (written == kMessages / 2) state_mid = sender.datapath_state_bytes();
    if (written < kMessages) {
      ++written;
      sender.write(kMsgBytes);
    }
  });

  const auto t0 = std::chrono::steady_clock::now();
  sender.write(kMsgBytes);
  net.sim.run();
  const double wall = seconds_since(t0);

  const double mb = static_cast<double>(sender.bytes_written()) / (1024.0 * 1024.0);
  const auto state_end = sender.datapath_state_bytes();
  std::printf("sender_memory:    %10.1f MB/s          (%.0f MB stream, state %zu B mid, %zu B end, %.2f B/MB)\n",
              mb / wall, mb, state_mid, state_end, static_cast<double>(state_end) / mb);
  report.add_perf("sender_memory", mb / wall,
                  {{"stream_mb", mb},
                   {"state_bytes_mid", static_cast<double>(state_mid)},
                   {"state_bytes_end", static_cast<double>(state_end)},
                   {"state_bytes_per_mb", static_cast<double>(state_end) / mb}});
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
  const double wall = seconds_since(t0);
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
  const double wall = seconds_since(t0);

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
