// Unified construction of any of the five protocols the paper evaluates,
// plus the Vegas and GIP baselines from its related work. Lives in core
// (not tcp) because it must be able to instantiate TrimSender.
#pragma once

#include <memory>

#include "core/trim_sender.hpp"
#include "tcp/cubic.hpp"
#include "tcp/dctcp.hpp"
#include "tcp/flow.hpp"
#include "tcp/gip.hpp"
#include "tcp/l2dct.hpp"
#include "tcp/reno.hpp"
#include "tcp/vegas.hpp"

namespace trim::core {

// The congestion-control variants' own parameters are constants at their
// published values (tcp/cubic.cpp, dctcp.cpp, l2dct.cpp, vegas.cpp).
struct ProtocolOptions {
  tcp::TcpConfig tcp;
  TrimConfig trim;  // consulted only for Protocol::kTrim
};

// Arena-backed when the source host's simulator carries a mem::SimMemory
// domain (scenario Worlds always do); heap-backed otherwise.
mem::ArenaPtr<tcp::TcpSender> make_sender(tcp::Protocol protocol, net::Host* src,
                                          net::NodeId dst, net::FlowId flow,
                                          const ProtocolOptions& opts);

// Allocates a flow id from `network`, then constructs the receiver on `dst`
// (in the destination shard's arena) and the sender on `src` (via
// make_sender), in that order. `receiver_cfg` configures the passive side;
// the default is the legacy pre-established receiver (lifecycle scenarios
// pass expect_handshake + their knobs).
tcp::Flow make_protocol_flow(net::Network& network, net::Host& src, net::Host& dst,
                             tcp::Protocol protocol, const ProtocolOptions& opts,
                             tcp::ReceiverConfig receiver_cfg = {});

}  // namespace trim::core
