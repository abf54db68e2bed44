// A Flow owns one TCP sender/receiver pair registered on two hosts under a
// shared flow id — the "persistent TCP connection" of the paper. By default
// the pair starts established, with no handshake: HTTP keeps connections
// established across requests. With TcpConfig::simulate_handshake on, the
// sender opens with a SYN and both ends run the full SYN/FIN/RST lifecycle
// of tcp/lifecycle.hpp (the receiver joins it on the first SYN).
#pragma once

#include <memory>

#include "mem/arena.hpp"
#include "net/network.hpp"
#include "sim/inline_callback.hpp"
#include "tcp/tcp_receiver.hpp"
#include "tcp/tcp_sender.hpp"

namespace trim::tcp {

// ArenaPtr: the endpoints are carved from their shard's arena (contiguous
// in creation order; destroying one returns its block for the next
// endpoint of the same type). A plain std::make_unique factory still
// converts — the deleter remembers heap-backed objects and deletes them
// normally.
struct Flow {
  net::FlowId id = net::kInvalidFlow;
  mem::ArenaPtr<TcpSender> sender;
  mem::ArenaPtr<TcpReceiver> receiver;
};

// Builds the sender half; lets callers inject any TcpSender subclass.
// InlineFunction (not std::function): scenarios construct thousands of
// flows through one factory, and the capture must not heap-allocate.
using SenderFactory = sim::InlineFunction<mem::ArenaPtr<TcpSender>(
    net::Host* src, net::NodeId dst, net::FlowId flow)>;

// Allocates a flow id from `network`, constructs the receiver on `dst` and
// the sender (via `factory`) on `src`. `receiver_cfg` configures the
// passive side (delayed ACKs, lifecycle) — the default is the legacy
// pre-established receiver.
Flow make_flow(net::Network& network, net::Host& src, net::Host& dst,
               const SenderFactory& factory, ReceiverConfig receiver_cfg = {});

}  // namespace trim::tcp
