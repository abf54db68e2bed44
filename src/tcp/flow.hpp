// A Flow owns one TCP sender/receiver pair registered on two hosts under a
// shared flow id — the "persistent TCP connection" of the paper. By default
// the pair starts established, with no handshake: HTTP keeps connections
// established across requests. With TcpConfig::simulate_handshake on, the
// sender opens with a SYN and both ends run the full SYN/FIN/RST lifecycle
// of tcp/lifecycle.hpp (the receiver joins it on the first SYN).
// core::make_protocol_flow builds one.
#pragma once

#include "mem/arena.hpp"
#include "net/network.hpp"
#include "tcp/tcp_receiver.hpp"
#include "tcp/tcp_sender.hpp"

namespace trim::tcp {

// ArenaPtr: the endpoints are carved from their shard's arena (contiguous
// in creation order; destroying one returns its block for the next
// endpoint of the same type). On a bare simulator they are heap-backed
// behind the same type — the deleter remembers heap-backed objects and
// deletes them normally.
struct Flow {
  net::FlowId id = net::kInvalidFlow;
  mem::ArenaPtr<TcpSender> sender;
  mem::ArenaPtr<TcpReceiver> receiver;
};

}  // namespace trim::tcp
