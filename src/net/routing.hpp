// Static shortest-path routing with ECMP.
//
// Routes are computed once after the topology is built (data-center fabrics
// are static for the duration of the paper's experiments). For each switch
// and each destination node, the table stores every egress port that lies
// on a shortest path; the forwarding decision hashes the flow id over that
// set, which is exactly per-flow ECMP as deployed in fat-trees.
//
// Only switches forward, so a shortest path never transits a host: the
// route build's BFS expands from its root and from switches only, and a
// multi-homed host is never a next hop toward anything but itself.
//
// Network::build_routes runs that BFS per root, not per destination. A
// leaf is a node all of whose edges lead to one peer (every host the
// topology builders create). Because links are duplex, the only way into a
// leaf is the hop peer -> leaf, so every shortest path to the leaf is a
// shortest path to the peer plus that hop: at every switch except the peer
// the leaf's port set is the peer's, and at the peer it is the ports that
// reach the leaf. A leaf therefore reuses its peer's BFS (or, hanging off
// a host, is unreachable). Both conditions -- one peer, duplex links --
// are what make this collapse exact; a node with two distinct peers is a
// root of its own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/address.hpp"

namespace trim::net {

// 64-bit mix used to decorrelate flow ids before the modulo (consecutive
// flow ids would otherwise all hash to consecutive ports).
std::uint64_t mix64(std::uint64_t x);

// Deterministic per-flow ECMP pick from a non-empty port set. `salt` must
// differ per switch (use the node id): hashing the bare flow id at every
// hop correlates the choices hop-to-hop and leaves entire core subsets
// unused.
inline std::size_t ecmp_pick(std::span<const std::uint32_t> ports, FlowId flow,
                             std::uint64_t salt) {
  if (ports.size() == 1) return ports[0];
  return ports[mix64(flow ^ (salt << 32)) % ports.size()];
}

// One switch's forwarding table, flat: destination d's ECMP port set is
// ports[offsets[d], offsets[d + 1]), in the switch's adjacency order.
class RoutingTable {
 public:
  RoutingTable() = default;
  // `offsets` holds one entry per destination plus a last entry equal to
  // ports.size(), and never decreases. Throws std::invalid_argument if not.
  RoutingTable(std::vector<std::uint32_t> offsets, std::vector<std::uint32_t> ports);

  // ECMP set toward `dst`; empty when `dst` is unroutable or out of range.
  std::span<const std::uint32_t> ports_for(NodeId dst) const {
    if (std::size_t{dst} + 1 >= offsets_.size()) return {};
    return {ports_.data() + offsets_[dst], ports_.data() + offsets_[dst + 1]};
  }
  bool has_route(NodeId dst) const { return !ports_for(dst).empty(); }

  // ecmp_pick over ports_for(dst); throws std::out_of_range without a route.
  std::size_t select_port(NodeId dst, FlowId flow, std::uint64_t salt = 0) const;

 private:
  std::vector<std::uint32_t> offsets_;  // dst id -> start in ports_; one extra end entry
  std::vector<std::uint32_t> ports_;
};

}  // namespace trim::net
