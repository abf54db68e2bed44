// Multi-hop, multi-bottleneck topology of Fig. 11(a).
//
//   groups A, C (senders) -- switch1 ==10G== switch2 ==10G== front-end
//   group  B (senders) ----------------^
//   group  D (receivers) --------------^
//
// A and B send long trains to the front-end; each C sender sends a long
// train to its paired D receiver, so C/D traffic crosses only the first
// bottleneck while A crosses both.
#pragma once

#include <optional>
#include <vector>

#include "net/network.hpp"

namespace trim::topo {

struct MultiHopConfig {
  int group_size = 10;  // senders per group (A, B, C) and receivers in D
  static constexpr std::uint64_t edge_bps = net::kGbps;
  static constexpr sim::SimTime edge_delay = sim::SimTime::micros(20);
  static constexpr std::uint64_t bottleneck_bps = 10 * net::kGbps;
  static constexpr sim::SimTime bottleneck_delay = sim::SimTime::micros(10);
  std::uint32_t switch_buffer_pkts = 250;
  std::optional<net::QueueConfig> switch_queue;
};

struct MultiHop {
  std::vector<net::Host*> group_a;  // on switch1, send to front-end
  std::vector<net::Host*> group_b;  // on switch2, send to front-end
  std::vector<net::Host*> group_c;  // on switch1, send to paired D host
  std::vector<net::Host*> group_d;  // on switch2, receivers for C
  net::Switch* switch1 = nullptr;
  net::Switch* switch2 = nullptr;
  net::Host* front_end = nullptr;
  net::Link* bottleneck1 = nullptr;  // switch1 -> switch2
  net::Link* bottleneck2 = nullptr;  // switch2 -> front-end
};

MultiHop build_multi_hop(net::Network& network, const MultiHopConfig& cfg);

}  // namespace trim::topo
