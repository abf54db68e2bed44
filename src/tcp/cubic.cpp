#include "tcp/cubic.hpp"

#include <algorithm>
#include <cmath>

namespace trim::tcp {

namespace {
constexpr double kC = 0.4;     // cubic scaling constant (RFC 8312)
constexpr double kBeta = 0.7;  // multiplicative decrease factor
constexpr bool kTcpFriendly = true;
}  // namespace

CubicSender::CubicSender(net::Host* host, net::NodeId dst, net::FlowId flow,
                         TcpConfig cfg)
    : TcpSender{host, dst, flow, cfg} {}

double CubicSender::cubic_window(double t_seconds) const {
  const double d = t_seconds - k_cubic_;
  return kC * d * d * d + w_max_;
}

void CubicSender::cc_on_new_ack(const AckEvent& ev) {
  if (cwnd() < ssthresh() || !epoch_valid_) {
    // Slow start (or no loss epoch yet): behave like Reno.
    reno_increase(ev.newly_acked);
    return;
  }
  const double t = (simulator()->now() - epoch_start_).to_seconds();
  const double rtt_s = rtt().srtt().to_seconds();
  const double target = cubic_window(t + rtt_s);

  // Standard per-ACK approach to the target over one RTT.
  double next = cwnd();
  for (std::uint64_t i = 0; i < ev.newly_acked; ++i) {
    if (target > next) {
      next += (target - next) / next;
    } else {
      next += 0.01 / next;  // minimal growth in the concave plateau
    }
    // TCP-friendly region: never be slower than an AIMD flow with the
    // same beta (RFC 8312 Sec. 4.2).
    if (kTcpFriendly) {
      tcp_estimate_ += 3.0 * (1.0 - kBeta) / (1.0 + kBeta) / next;
      next = std::max(next, tcp_estimate_);
    }
  }
  set_cwnd(next);
}

void CubicSender::register_loss() {
  w_max_ = cwnd();
  epoch_start_ = simulator()->now();
  epoch_valid_ = true;
  k_cubic_ = std::cbrt(w_max_ * (1.0 - kBeta) / kC);
  tcp_estimate_ = w_max_ * kBeta;
}

void CubicSender::cc_on_fast_retransmit() {
  register_loss();
  const double reduced = std::max(cwnd() * kBeta, 2.0);
  set_ssthresh(reduced);
  set_cwnd(reduced);
}

void CubicSender::cc_on_timeout() {
  register_loss();
  set_ssthresh(std::max(cwnd() * kBeta, 2.0));
  set_cwnd(config().cwnd_after_rto);
  // An RTO invalidates the epoch: restart probing from slow start.
  epoch_valid_ = false;
}

}  // namespace trim::tcp
