#include "topo/partition.hpp"

#include <algorithm>
#include <numeric>

#include "net/switch.hpp"
#include "sim/config_error.hpp"

namespace trim::topo {

double Partition::imbalance() const {
  const double total =
      std::accumulate(shard_weight.begin(), shard_weight.end(), 0.0);
  if (total <= 0.0 || shard_weight.empty()) return 1.0;
  const double ideal = total / static_cast<double>(shard_weight.size());
  return *std::max_element(shard_weight.begin(), shard_weight.end()) / ideal;
}

namespace {

// Default event-load estimate when the builder did not annotate: switches
// scale with their fanout (one serialization + one arrival per transit
// packet and port), hosts carry the transport work of their agents.
double default_weight(const net::Node& node, std::size_t degree) {
  if (dynamic_cast<const net::Switch*>(&node) != nullptr) {
    return 1.0 + static_cast<double>(degree);
  }
  return 2.0;
}

}  // namespace

Partition partition_network(const net::Network& network, int shards) {
  if (shards < 1) {
    throw ConfigError{"shard count must be >= 1", "partition_network"};
  }
  const std::size_t n = network.node_count();
  Partition part;
  part.shards = shards;
  part.shard_of_node.assign(n, 0);
  part.shard_weight.assign(static_cast<std::size_t>(shards), 0.0);
  if (n == 0) return part;

  // ---- 1. Resolve affinity groups. ----
  // Annotated nodes keep their builder-assigned group (re-indexed dense).
  // Unannotated switches each seed a group; unannotated hosts join the
  // group of their first egress peer (their access switch in every repo
  // topology), falling back to an own group for isolated nodes.
  std::vector<int> group_of(n, -1);
  std::vector<int> annotated_index;  // builder group id -> dense group id
  int groups = 0;
  auto dense_group = [&](int builder_group) {
    for (std::size_t i = 0; i < annotated_index.size(); ++i) {
      if (annotated_index[i] == builder_group) return static_cast<int>(i);
    }
    annotated_index.push_back(builder_group);
    return groups++;
  };
  // Annotations and switches first, so hosts can adopt in the second pass.
  for (net::NodeId id = 0; id < n; ++id) {
    const net::Node& node = network.node(id);
    if (node.part_group() >= 0) {
      group_of[id] = dense_group(node.part_group());
    } else if (dynamic_cast<const net::Switch*>(&node) != nullptr) {
      group_of[id] = groups++;
    }
  }
  for (net::NodeId id = 0; id < n; ++id) {
    if (group_of[id] >= 0) continue;
    const net::Node& node = network.node(id);
    if (node.port_count() > 0) {
      const net::Node* peer = node.out_link(0).peer();
      if (peer != nullptr && group_of[peer->id()] >= 0) {
        group_of[id] = group_of[peer->id()];
        continue;
      }
    }
    group_of[id] = groups++;
  }
  part.groups = groups;

  // ---- 2. Weigh groups. ----
  std::vector<double> group_weight(static_cast<std::size_t>(groups), 0.0);
  for (net::NodeId id = 0; id < n; ++id) {
    const net::Node& node = network.node(id);
    const double w = node.part_weight() > 0.0
                         ? node.part_weight()
                         : default_weight(node, node.port_count());
    group_weight[static_cast<std::size_t>(group_of[id])] += w;
  }

  // ---- 3. LPT bin-packing: heaviest group onto the lightest shard. ----
  // Ties (equal weights, equal loads) break by lowest id, so the
  // placement is a pure function of the topology.
  std::vector<int> order(static_cast<std::size_t>(groups));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return group_weight[static_cast<std::size_t>(a)] >
           group_weight[static_cast<std::size_t>(b)];
  });
  std::vector<int> shard_of_group(static_cast<std::size_t>(groups), 0);
  for (const int g : order) {
    const auto lightest =
        std::min_element(part.shard_weight.begin(), part.shard_weight.end());
    const int s = static_cast<int>(lightest - part.shard_weight.begin());
    shard_of_group[static_cast<std::size_t>(g)] = s;
    part.shard_weight[static_cast<std::size_t>(s)] +=
        group_weight[static_cast<std::size_t>(g)];
  }
  for (net::NodeId id = 0; id < n; ++id) {
    part.shard_of_node[id] = shard_of_group[static_cast<std::size_t>(group_of[id])];
  }

  // ---- 4. Cut census. ----
  const auto& links = network.links();
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (part.shard_of_node[network.link_source(i)] !=
        part.shard_of_node[links[i]->peer()->id()]) {
      ++part.cut_links;
    }
  }
  return part;
}

Partition shard_network(net::Network& network, sim::ShardedEngine& engine) {
  Partition part = partition_network(network, engine.shard_count());
  if (engine.shard_count() > 1 && part.cut_links > 0) {
    network.apply_partition(engine, part.shard_of_node);
  }
  return part;
}

}  // namespace trim::topo
