#include "net/network.hpp"

#include "sim/config_error.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

namespace trim::net {

Network::Network(sim::Simulator* sim) : sim_{sim} {
  if (sim_ == nullptr) {
    throw ConfigError{"null simulator", "Network", "a live sim::Simulator"};
  }
}

Host* Network::add_host(std::string name) {
  const auto id = static_cast<NodeId>(nodes_.size());
  auto host = std::make_unique<Host>(sim_, id, std::move(name));
  Host* raw = host.get();
  nodes_.push_back(std::move(host));
  adjacency_.emplace_back();
  return raw;
}

Switch* Network::add_switch(std::string name) {
  const auto id = static_cast<NodeId>(nodes_.size());
  auto sw = std::make_unique<Switch>(sim_, id, std::move(name));
  Switch* raw = sw.get();
  nodes_.push_back(std::move(sw));
  adjacency_.emplace_back();
  return raw;
}

Network::Duplex Network::connect(Node& a, Node& b, const LinkSpec& spec) {
  return connect(a, b, spec, spec);
}

Network::Duplex Network::connect(Node& a, Node& b, const LinkSpec& a_to_b,
                                 const LinkSpec& b_to_a) {
  auto make = [this](Node& from, Node& to, const LinkSpec& spec) -> Link* {
    auto link = std::make_unique<Link>(sim_, from.name() + "->" + to.name(),
                                       spec.bits_per_sec, spec.prop_delay,
                                       make_queue(spec.queue));
    link->set_peer(&to);
    Link* raw = link.get();
    links_.push_back(std::move(link));
    link_src_.push_back(from.id());
    const std::size_t port = from.attach_link(raw);
    adjacency_[from.id()].push_back({to.id(), port});
    return raw;
  };
  return Duplex{make(a, b, a_to_b), make(b, a, b_to_a)};
}

void Network::build_routes() {
  const auto n = static_cast<NodeId>(nodes_.size());
  constexpr std::uint32_t kNoRow = 0xFFFFFFFFu;

  // Only switches forward: they alone get tables, and the BFS below
  // expands only them and its root.
  std::vector<NodeId> switches;
  std::vector<char> forwards(n, 0);
  for (NodeId id = 0; id < n; ++id) {
    if (dynamic_cast<const Switch*>(nodes_[id].get()) != nullptr) {
      switches.push_back(id);
      forwards[id] = 1;
    }
  }

  // Each destination copies the port sets of one BFS root (routing.hpp):
  // its own, or for a leaf hanging off a switch, that switch's. Nothing
  // forwards to a leaf hanging off a host.
  std::vector<NodeId> leaf_peer(n, kInvalidNode);
  std::vector<NodeId> root_of(n, kInvalidNode);
  std::vector<std::uint32_t> row_of(n, kNoRow);  // root -> its BFS's row in `via`
  std::vector<NodeId> roots;
  for (NodeId d = 0; d < n; ++d) {
    const auto& edges = adjacency_[d];
    NodeId root = d;
    if (!edges.empty() && std::all_of(edges.begin(), edges.end(), [&](const Edge& e) {
          return e.peer == edges.front().peer;
        })) {
      leaf_peer[d] = edges.front().peer;
      root = forwards[leaf_peer[d]] ? leaf_peer[d] : kInvalidNode;
    }
    root_of[d] = root;
    if (root != kInvalidNode && row_of[root] == kNoRow) {
      row_of[root] = static_cast<std::uint32_t>(roots.size());
      roots.push_back(root);
    }
  }

  // Per root and switch k, the ports on a shortest path toward the root:
  // via[via_off[row * switches + k], via_off[row * switches + k + 1]).
  const std::size_t n_sw = switches.size();
  std::vector<std::uint32_t> via_off{0};
  via_off.reserve(roots.size() * n_sw + 1);
  std::vector<std::uint32_t> via;
  std::vector<int> dist(n, -1);
  std::vector<NodeId> reached;  // BFS queue, then the nodes to reset
  for (const NodeId root : roots) {
    reached.assign(1, root);
    dist[root] = 0;
    for (std::size_t i = 0; i < reached.size(); ++i) {
      const NodeId u = reached[i];
      for (const Edge& e : adjacency_[u]) {
        if (forwards[e.peer] && dist[e.peer] == -1) {
          dist[e.peer] = dist[u] + 1;
          reached.push_back(e.peer);
        }
      }
    }
    for (const NodeId u : switches) {
      if (dist[u] > 0) {
        for (const Edge& e : adjacency_[u]) {
          if (dist[e.peer] == dist[u] - 1) via.push_back(static_cast<std::uint32_t>(e.port));
        }
      }
      via_off.push_back(static_cast<std::uint32_t>(via.size()));
    }
    for (const NodeId v : reached) dist[v] = -1;
  }

  // Each leaf's ports on its switch peer, in the peer's adjacency order:
  // leaf_ports[leaf_off[d], leaf_off[d + 1]).
  std::vector<std::uint32_t> leaf_off(std::size_t{n} + 1, 0);
  for (const NodeId u : switches) {
    for (const Edge& e : adjacency_[u]) {
      if (leaf_peer[e.peer] == u) ++leaf_off[e.peer + 1];
    }
  }
  std::partial_sum(leaf_off.begin(), leaf_off.end(), leaf_off.begin());
  std::vector<std::uint32_t> leaf_ports(leaf_off.back());
  std::vector<std::uint32_t> fill(leaf_off.begin(), leaf_off.end() - 1);
  for (const NodeId u : switches) {
    for (const Edge& e : adjacency_[u]) {
      if (leaf_peer[e.peer] == u) leaf_ports[fill[e.peer]++] = static_cast<std::uint32_t>(e.port);
    }
  }

  for (std::size_t k = 0; k < n_sw; ++k) {
    const NodeId u = switches[k];
    std::vector<std::uint32_t> offsets{0};
    offsets.reserve(std::size_t{n} + 1);
    std::vector<std::uint32_t> ports;
    for (NodeId d = 0; d < n; ++d) {
      if (d == u || root_of[d] == kInvalidNode) {
        // no route
      } else if (leaf_peer[d] == u) {
        ports.insert(ports.end(), leaf_ports.begin() + leaf_off[d],
                     leaf_ports.begin() + leaf_off[d + 1]);
      } else {
        const std::size_t at = row_of[root_of[d]] * n_sw + k;
        ports.insert(ports.end(), via.begin() + via_off[at], via.begin() + via_off[at + 1]);
      }
      offsets.push_back(static_cast<std::uint32_t>(ports.size()));
    }
    static_cast<Switch&>(*nodes_[u]).routes_ = RoutingTable{std::move(offsets), std::move(ports)};
  }
}

NodeId Network::link_source(std::size_t link_index) const {
  if (link_index >= link_src_.size()) {
    throw ConfigError{"bad link index", "Network::link_source"};
  }
  return link_src_[link_index];
}

void Network::apply_partition(sim::ShardedEngine& engine,
                              const std::vector<int>& shard_of_node) {
  if (shard_of_node.size() != nodes_.size()) {
    throw ConfigError{"partition size != node count", "Network::apply_partition",
                      "one shard id per node"};
  }
  for (const int s : shard_of_node) {
    if (s < 0 || s >= engine.shard_count()) {
      throw ConfigError{"shard id out of range", "Network::apply_partition",
                        "[0, engine.shard_count())"};
    }
  }
  if (engine.pending_events() != 0) {
    throw ConfigError{"partition applied to a running world",
                      "Network::apply_partition",
                      "apply before scheduling any event"};
  }

  // Nodes first, so Host::simulator() is correct for every transport and
  // application created after this point.
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    nodes_[id]->rebind_simulator(&engine.shard(shard_of_node[id]));
  }
  // Each link runs on its source's shard; cuts switch to mailbox delivery.
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const int src = shard_of_node[link_src_[i]];
    const int dst = shard_of_node[links_[i]->peer()->id()];
    links_[i]->rebind_simulator(&engine.shard(src));
    if (src != dst) {
      engine.note_cut_link(src, dst, links_[i]->prop_delay());
      links_[i]->set_cross_shard(&engine, src, dst);
    }
  }
  shard_of_ = shard_of_node;
}

std::uint64_t Network::total_drops() const {
  std::uint64_t n = 0;
  for (const auto& link : links_) n += link->queue().stats().dropped;
  return n;
}

}  // namespace trim::net
