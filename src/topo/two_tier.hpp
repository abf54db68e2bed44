// Two-tier tree of Fig. 8(a): ToR switches, each with `servers_per_switch`
// hosts on 1 Gbps/20 us links, uplinked to a fabric switch; a single
// front-end server hangs off the fabric switch on a 10 Gbps/10 us cable.
#pragma once

#include <optional>
#include <vector>

#include "net/network.hpp"

namespace trim::topo {

struct TwoTierConfig {
  int num_switches = 5;            // paper sweeps 5..25
  int servers_per_switch = 42;
  static constexpr std::uint64_t edge_bps = net::kGbps;
  static constexpr sim::SimTime edge_delay = sim::SimTime::micros(20);
  static constexpr std::uint64_t frontend_bps = 10 * net::kGbps;
  static constexpr sim::SimTime frontend_delay = sim::SimTime::micros(10);
  std::uint32_t switch_buffer_pkts = 100;
  std::optional<net::QueueConfig> switch_queue;
};

struct TwoTier {
  std::vector<std::vector<net::Host*>> servers;  // [switch][server]
  std::vector<net::Switch*> tors;
  net::Switch* fabric = nullptr;
  net::Host* front_end = nullptr;
  net::Link* frontend_link = nullptr;  // fabric -> front-end bottleneck

  int total_servers() const {
    int n = 0;
    for (const auto& group : servers) n += static_cast<int>(group.size());
    return n;
  }
};

TwoTier build_two_tier(net::Network& network, const TwoTierConfig& cfg);

}  // namespace trim::topo
