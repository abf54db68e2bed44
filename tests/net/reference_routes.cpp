#include "net/reference_routes.hpp"

#include <deque>
#include <stdexcept>

namespace trim::net {

void ReferenceRoutingTable::add_route(NodeId dst, std::size_t port) {
  if (dst >= next_hops_.size()) throw std::out_of_range("RoutingTable::add_route: bad dst");
  next_hops_[dst].push_back(port);
}

bool ReferenceRoutingTable::has_route(NodeId dst) const {
  return dst < next_hops_.size() && !next_hops_[dst].empty();
}

const std::vector<std::size_t>& ReferenceRoutingTable::ports_for(NodeId dst) const {
  if (!has_route(dst)) throw std::out_of_range("RoutingTable: no route to destination");
  return next_hops_[dst];
}

ReferenceRoutes::ReferenceRoutes(const Network& net)
    : adjacency_(net.node_count()), tables_(net.node_count()) {
  for (NodeId u = 0; u < net.node_count(); ++u) {
    const Node& node = net.node(u);
    for (std::size_t port = 0; port < node.port_count(); ++port) {
      adjacency_[u].push_back({node.out_link(port).peer()->id(), port});
    }
  }

  // One BFS per destination: O(V * (V+E)).
  for (NodeId dst = 0; dst < net.node_count(); ++dst) {
    const auto dist = bfs_distances(dst);  // symmetric links => same as to-dst
    for (NodeId u = 0; u < net.node_count(); ++u) {
      auto* sw = dynamic_cast<const Switch*>(&net.node(u));
      if (sw == nullptr || u == dst || dist[u] == -1) continue;
      tables_[u].resize(net.node_count());
      for (const Edge& e : adjacency_[u]) {
        if (dist[e.peer] == dist[u] - 1) tables_[u].add_route(dst, e.port);
      }
    }
  }
}

std::vector<int> ReferenceRoutes::bfs_distances(NodeId from) const {
  std::vector<int> dist(adjacency_.size(), -1);
  std::deque<NodeId> frontier{from};
  dist[from] = 0;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    for (const Edge& e : adjacency_[u]) {
      if (dist[e.peer] == -1) {
        dist[e.peer] = dist[u] + 1;
        frontier.push_back(e.peer);
      }
    }
  }
  return dist;
}

std::vector<std::size_t> ReferenceRoutes::ports_for(NodeId sw, NodeId dst) const {
  if (sw >= tables_.size() || !tables_[sw].has_route(dst)) return {};
  return tables_[sw].ports_for(dst);
}

}  // namespace trim::net
