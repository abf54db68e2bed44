#include "net/routing.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace trim::net {

std::uint64_t mix64(std::uint64_t x) {
  // splitmix64 finalizer.
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

RoutingTable::RoutingTable(std::vector<std::uint32_t> offsets,
                           std::vector<std::uint32_t> ports)
    : offsets_{std::move(offsets)}, ports_{std::move(ports)} {
  const std::size_t end = offsets_.empty() ? 0 : offsets_.back();
  if (end != ports_.size() || !std::is_sorted(offsets_.begin(), offsets_.end())) {
    throw std::invalid_argument("RoutingTable: offsets must be sorted and end at ports.size()");
  }
}

std::size_t RoutingTable::select_port(NodeId dst, FlowId flow, std::uint64_t salt) const {
  const auto ports = ports_for(dst);
  if (ports.empty()) throw std::out_of_range("RoutingTable: no route to destination");
  return ecmp_pick(ports, flow, salt);
}

}  // namespace trim::net
