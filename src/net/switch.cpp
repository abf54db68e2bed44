#include "net/switch.hpp"

#include "net/link.hpp"
#include "sim/logging.hpp"

namespace trim::net {

void Switch::receive(Packet p) {
  const auto ports = routes_.ports_for(p.dst);
  if (ports.empty()) {
    ++unroutable_;
    sim::warn(sim_->now().to_seconds(), "switch %s: no route for %s", name_.c_str(),
              p.describe().c_str());
    return;
  }
  const std::size_t port = ecmp_pick(ports, p.flow, id_);
  ++forwarded_;
  out_links_[port]->send(std::move(p));
}

}  // namespace trim::net
