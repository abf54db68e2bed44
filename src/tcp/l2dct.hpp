// L2DCT (Munir et al., INFOCOM 2013) — comparison protocol (Fig. 12,
// Table I).
//
// L2DCT keeps DCTCP's ECN/alpha machinery and adds Least-Attained-Service
// weighting: a flow's weight w_c starts at w_max (2.5) and decays toward
// w_min (0.125) as the flow transmits more data. The weight scales the
// additive increase (young/short flows ramp faster) and the multiplicative
// back-off (old/long flows yield more), emulating LAS scheduling from the
// end host. No public reference implementation exists; this follows the
// published description with a smooth exponential weight decay over the
// attained service (documented substitution in DESIGN.md).
#pragma once

#include "tcp/dctcp.hpp"

namespace trim::tcp {

class L2dctSender : public DctcpSender {
 public:
  L2dctSender(net::Host* host, net::NodeId dst, net::FlowId flow, TcpConfig cfg);

  Protocol protocol() const override { return Protocol::kL2dct; }

  double weight() const;

 protected:
  void cc_on_new_ack(const AckEvent& ev) override;
  double decrease_factor() const override;
};

}  // namespace trim::tcp
