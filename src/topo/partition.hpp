// Topology partitioner for the sharded parallel engine.
//
// Splits a built net::Network into `shards` balanced pieces for
// sim::ShardedEngine. The unit of placement is the *affinity group*: a set
// of nodes that must stay on one shard. Groups come from builder
// annotations (Node::set_part_group — a rack with its ToR, a pod, a hub
// switch); unannotated nodes are grouped by a generic rule that matches
// the repo's topologies — every switch seeds a group, and a single-homed
// host joins its access switch's group — so any topology partitions
// sensibly without annotations.
//
// Groups are then placed by weight with LPT (longest-processing-time)
// bin-packing: heaviest group first onto the lightest shard. Weights are
// relative event-load estimates — Node::set_part_weight lets builders mark
// known funnels (the incast front-end, transit fabric switches) that pure
// degree counting underestimates; the default is degree-based.
//
// The result is deterministic: ties in weight break by group id, so the
// same topology always yields the same partition.
#pragma once

#include <vector>

#include "net/network.hpp"

namespace trim::topo {

struct Partition {
  std::vector<int> shard_of_node;  // node id -> shard, size node_count()
  int shards = 1;                  // requested shard count
  int groups = 0;                  // affinity groups discovered
  // Links whose endpoints differ in shard. The lookahead they imply is the
  // engine's: applying the partition registers each one with it
  // (ShardedEngine::note_cut_link), and ShardedEngine::lookahead_between
  // reports the path-closed per-pair matrix.
  int cut_links = 0;

  // Largest shard weight over the ideal (total / shards); 1.0 is perfect.
  double imbalance() const;

  std::vector<double> shard_weight;  // estimated load per shard
};

// Partition `network` into at most `shards` pieces (>= 1). Fewer groups
// than shards leaves the surplus shards empty. The network must be fully
// built (all connect() calls done).
Partition partition_network(const net::Network& network, int shards);

// Convenience: partition and apply in one step when the engine is wider
// than one shard; a no-op (everything on shard 0) otherwise. Returns the
// partition actually applied.
Partition shard_network(net::Network& network, sim::ShardedEngine& engine);

}  // namespace trim::topo
