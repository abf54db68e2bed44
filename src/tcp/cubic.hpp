// CUBIC (RFC 8312) — the Linux default the paper's testbed compares
// against in Fig. 13.
//
// Window growth in congestion avoidance follows the cubic function
//   W_cubic(t) = C*(t - K_cubic)^3 + W_max
// anchored at the window before the last reduction, with the standard
// TCP-friendliness check. Slow start and loss recovery mechanics come from
// the TcpSender base.
#pragma once

#include "tcp/tcp_sender.hpp"

namespace trim::tcp {

class CubicSender : public TcpSender {
 public:
  CubicSender(net::Host* host, net::NodeId dst, net::FlowId flow, TcpConfig cfg);

  Protocol protocol() const override { return Protocol::kCubic; }

  double w_max() const { return w_max_; }

 protected:
  void cc_on_new_ack(const AckEvent& ev) override;
  void cc_on_fast_retransmit() override;
  void cc_on_timeout() override;

 private:
  void register_loss();
  double cubic_window(double t_seconds) const;

  double w_max_ = 0.0;
  double k_cubic_ = 0.0;             // inflection offset in seconds
  sim::SimTime epoch_start_;          // time of last reduction
  bool epoch_valid_ = false;
  double tcp_estimate_ = 0.0;         // W_est for the friendliness check
};

}  // namespace trim::tcp
