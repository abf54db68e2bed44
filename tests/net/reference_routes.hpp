// Reference route builder for the routing tests: the per-destination BFS
// that Network::build_routes ran before it collapsed leaves into their
// peer and stored each switch's table flat. One BFS per node over every
// edge, hosts included, and each (switch, destination) port set in its own
// vector. It is the slow, obvious computation, which is what makes it a
// useful oracle: the route tests assert that every port set the network
// builds equals this one, port order included.
//
// It agrees with Network::build_routes whenever no host has two distinct
// peers. With a multi-homed host it routes through that host, which never
// forwards; the network tests cover that topology against delivery instead.
#pragma once

#include <cstddef>
#include <vector>

#include "net/network.hpp"

namespace trim::net {

class ReferenceRoutingTable {
 public:
  void resize(std::size_t num_destinations) { next_hops_.resize(num_destinations); }

  void add_route(NodeId dst, std::size_t port);
  bool has_route(NodeId dst) const;
  const std::vector<std::size_t>& ports_for(NodeId dst) const;

 private:
  std::vector<std::vector<std::size_t>> next_hops_;  // dst id -> ECMP port set
};

class ReferenceRoutes {
 public:
  // Reads `net`'s adjacency through its public API (port p of node u leads
  // to u.out_link(p).peer(), in connect() order) and builds every table.
  explicit ReferenceRoutes(const Network& net);

  // Port set of node `sw` toward `dst`, in adjacency order; empty when
  // `dst` is unroutable or out of range, or `sw` is not a switch.
  std::vector<std::size_t> ports_for(NodeId sw, NodeId dst) const;

 private:
  struct Edge {
    NodeId peer;
    std::size_t port;  // egress port index on the owning node
  };

  std::vector<int> bfs_distances(NodeId from) const;

  std::vector<std::vector<Edge>> adjacency_;  // node id -> edges
  std::vector<ReferenceRoutingTable> tables_;  // node id -> table (empty for hosts)
};

}  // namespace trim::net
