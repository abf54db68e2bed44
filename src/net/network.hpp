// Owner of a simulated network: nodes, links, adjacency, routing, and flow
// id allocation. Topology builders (src/topo) drive this API.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/host.hpp"
#include "net/link.hpp"
#include "net/queue.hpp"
#include "net/switch.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/simulator.hpp"

namespace trim::net {

struct LinkSpec {
  std::uint64_t bits_per_sec = 0;
  sim::SimTime prop_delay;
  QueueConfig queue;
};

// Convenience rates.
inline constexpr std::uint64_t kMbps = 1'000'000ull;
inline constexpr std::uint64_t kGbps = 1'000'000'000ull;

class Network {
 public:
  explicit Network(sim::Simulator* sim);

  sim::Simulator* simulator() const { return sim_; }

  Host* add_host(std::string name);
  Switch* add_switch(std::string name);

  // Creates a link in each direction (possibly with distinct specs) and
  // attaches them as egress ports on `a` and `b`.
  struct Duplex {
    Link* a_to_b;
    Link* b_to_a;
  };
  Duplex connect(Node& a, Node& b, const LinkSpec& spec);
  Duplex connect(Node& a, Node& b, const LinkSpec& a_to_b, const LinkSpec& b_to_a);

  // Compute shortest-path ECMP routes for every switch (routing.hpp),
  // replacing any earlier tables whole. Must be called after the last
  // connect() and before traffic starts.
  void build_routes();

  // Distribute the built topology across `engine`'s shards:
  // `shard_of_node[id]` re-homes node `id` (and every link it sources)
  // onto that shard's simulator, and each link whose endpoints land on
  // different shards is switched to the engine's mailbox delivery path
  // (its prop_delay shrinks the engine lookahead). Must run after the
  // last connect() and before any flow, agent, or event is created —
  // transports pick their shard up from Host::simulator(). Throws
  // ConfigError on a malformed partition, a zero-delay cut link, or a
  // world that already has pending events.
  void apply_partition(sim::ShardedEngine& engine,
                       const std::vector<int>& shard_of_node);

  // Shard owning node `id`: 0 before apply_partition (everything lives on
  // the control shard).
  int node_shard(NodeId id) const {
    return shard_of_.empty() ? 0 : shard_of_.at(id);
  }

  // Source node of a link (links are unidirectional; the owner schedules
  // its serialization events). Index into links().
  NodeId link_source(std::size_t link_index) const;

  FlowId new_flow_id() { return next_flow_id_++; }

  std::size_t node_count() const { return nodes_.size(); }
  Node& node(NodeId id) const { return *nodes_.at(id); }
  const std::vector<std::unique_ptr<Link>>& links() const { return links_; }

  // Aggregate drop count across every queue in the network (Fig. 9(c)).
  std::uint64_t total_drops() const;

 private:
  struct Edge {
    NodeId peer;
    std::size_t port;  // egress port index on the owning node
  };

  sim::Simulator* sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::vector<Edge>> adjacency_;  // node id -> edges
  std::vector<int> shard_of_;                 // empty until apply_partition
  std::vector<NodeId> link_src_;              // links_[i] is sourced by link_src_[i]
  FlowId next_flow_id_ = 1;
};

}  // namespace trim::net
