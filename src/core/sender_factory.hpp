// Unified construction of any of the five protocols the paper evaluates.
// Lives in core (not tcp) because it must be able to instantiate TrimSender.
#pragma once

#include <memory>

#include "core/trim_sender.hpp"
#include "tcp/cubic.hpp"
#include "tcp/dctcp.hpp"
#include "tcp/flow.hpp"
#include "tcp/d2tcp.hpp"
#include "tcp/gip.hpp"
#include "tcp/l2dct.hpp"
#include "tcp/reno.hpp"
#include "tcp/vegas.hpp"

namespace trim::core {

struct ProtocolOptions {
  tcp::TcpConfig tcp;
  TrimConfig trim;          // consulted only for Protocol::kTrim
  tcp::CubicConfig cubic;   // only for kCubic
  tcp::DctcpConfig dctcp;   // for kDctcp / kL2dct
  tcp::L2dctConfig l2dct;   // only for kL2dct
  tcp::VegasConfig vegas;   // only for kVegas
  tcp::D2tcpConfig d2tcp;   // only for kD2tcp
  tcp::GipConfig gip;       // only for kGip
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
