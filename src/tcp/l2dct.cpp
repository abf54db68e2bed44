#include "tcp/l2dct.hpp"

#include <algorithm>
#include <cmath>

namespace trim::tcp {

namespace {
constexpr double kWMin = 0.125;
constexpr double kWMax = 2.5;
// Attained service at which the weight has decayed by ~63% toward kWMin.
constexpr std::uint64_t kServiceScaleBytes = 500 * 1024;
}  // namespace

L2dctSender::L2dctSender(net::Host* host, net::NodeId dst, net::FlowId flow,
                         TcpConfig cfg)
    : DctcpSender{host, dst, flow, cfg} {}

double L2dctSender::weight() const {
  const double attained = static_cast<double>(bytes_acked());
  const double decay = std::exp(-attained / static_cast<double>(kServiceScaleBytes));
  return kWMin + (kWMax - kWMin) * decay;
}

void L2dctSender::cc_on_new_ack(const AckEvent& ev) {
  const double w = weight();
  double next = cwnd();
  for (std::uint64_t i = 0; i < ev.newly_acked; ++i) {
    if (next < ssthresh()) {
      next += 1.0;  // slow start is unchanged
    } else {
      next += w / next;  // weighted additive increase: +w_c per RTT
    }
  }
  set_cwnd(next);
}

double L2dctSender::decrease_factor() const {
  // Scale DCTCP's alpha/2 cut by how much service the flow has attained:
  // young flows cut like DCTCP, old flows cut up to twice as deep
  // (bounded by a full alpha cut), yielding bandwidth to short flows.
  const double penalty = 2.0 - weight() / kWMax;  // in [1, 2)
  return std::min(alpha() / 2.0 * penalty, 0.9);
}

}  // namespace trim::tcp
