// k-ary fat-tree (Al-Fares et al.) used by the protocol comparison
// (Fig. 12, Table I): k pods, each with k/2 edge and k/2 aggregation
// switches, (k/2)^2 core switches, and k^2/4 hosts per pod (k^3/4 total).
// All links run at the same rate; multipath is handled by per-flow ECMP in
// the switches' routing tables.
#pragma once

#include <optional>
#include <vector>

#include "net/network.hpp"

namespace trim::topo {

struct FatTreeConfig {
  int k = 4;  // pod count == port count; must be even, >= 2
  static constexpr std::uint64_t link_bps = 10 * net::kGbps;
  static constexpr sim::SimTime link_delay = sim::SimTime::micros(10);
  static constexpr std::uint64_t switch_buffer_bytes = 350 * 1024;  // paper: 350 KB
  std::optional<net::QueueConfig> switch_queue;
};

struct FatTree {
  std::vector<net::Host*> hosts;           // all k^3/4 hosts
  std::vector<net::Switch*> edge_switches;
  std::vector<net::Switch*> agg_switches;
  std::vector<net::Switch*> core_switches;
  int k = 0;

  int hosts_per_pod() const { return k * k / 4; }
};

FatTree build_fat_tree(net::Network& network, const FatTreeConfig& cfg);

}  // namespace trim::topo
