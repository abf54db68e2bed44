// Output-queued switch: looks up the destination in its routing table,
// picks an ECMP port, and forwards. The contention the paper studies lives
// in the egress Link queues, not here.
#pragma once

#include <cstdint>

#include "net/node.hpp"
#include "net/routing.hpp"

namespace trim::net {

class Switch : public Node {
 public:
  using Node::Node;

  const RoutingTable& routes() const { return routes_; }

  void receive(Packet p) override;

  std::uint64_t forwarded_packets() const { return forwarded_; }
  std::uint64_t unroutable_packets() const { return unroutable_; }

 private:
  friend class Network;  // build_routes assigns routes_ whole

  RoutingTable routes_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t unroutable_ = 0;
};

}  // namespace trim::net
