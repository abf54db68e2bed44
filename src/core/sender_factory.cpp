#include "core/sender_factory.hpp"

#include "mem/sim_memory.hpp"
#include "sim/config_error.hpp"

#include <stdexcept>

namespace trim::core {

mem::ArenaPtr<tcp::TcpSender> make_sender(tcp::Protocol protocol, net::Host* src,
                                          net::NodeId dst, net::FlowId flow,
                                          const ProtocolOptions& opts) {
  // Senders are carved from the source shard's arena in creation order:
  // the per-ACK virtual dispatch then walks contiguous storage instead of
  // scattered heap objects. Bare simulators (no attached domain) fall back
  // to the heap — arena_new(nullptr) is make_unique.
  mem::Arena* a = nullptr;
  if (src != nullptr) {
    if (mem::SimMemory* m = mem::memory_of(src->simulator())) a = &m->arena;
  }
  switch (protocol) {
    case tcp::Protocol::kReno:
      return mem::arena_new<tcp::RenoSender>(a, src, dst, flow, opts.tcp);
    case tcp::Protocol::kCubic:
      return mem::arena_new<tcp::CubicSender>(a, src, dst, flow, opts.tcp);
    case tcp::Protocol::kDctcp:
      return mem::arena_new<tcp::DctcpSender>(a, src, dst, flow, opts.tcp);
    case tcp::Protocol::kL2dct:
      return mem::arena_new<tcp::L2dctSender>(a, src, dst, flow, opts.tcp);
    case tcp::Protocol::kTrim:
      return mem::arena_new<TrimSender>(a, src, dst, flow, opts.tcp, opts.trim);
    case tcp::Protocol::kVegas:
      return mem::arena_new<tcp::VegasSender>(a, src, dst, flow, opts.tcp);
    case tcp::Protocol::kGip:
      return mem::arena_new<tcp::GipSender>(a, src, dst, flow, opts.tcp);
  }
  throw ConfigError{"unknown protocol", "make_sender"};
}

tcp::Flow make_protocol_flow(net::Network& network, net::Host& src, net::Host& dst,
                             tcp::Protocol protocol, const ProtocolOptions& opts,
                             tcp::ReceiverConfig receiver_cfg) {
  tcp::Flow flow;
  flow.id = network.new_flow_id();
  // The receiver lives in the destination shard's arena (its callbacks run
  // on that shard); make_sender uses the source shard's.
  mem::Arena* arena = nullptr;
  if (mem::SimMemory* m = mem::memory_of(dst.simulator())) arena = &m->arena;
  flow.receiver = mem::arena_new<tcp::TcpReceiver>(arena, &dst, flow.id, src.id(),
                                                   receiver_cfg);
  flow.sender = make_sender(protocol, &src, dst.id(), flow.id, opts);
  return flow;
}

}  // namespace trim::core
