#include "tcp/dctcp.hpp"

#include <algorithm>

namespace trim::tcp {

namespace {
constexpr double kG = 1.0 / 16.0;  // alpha gain, per the DCTCP paper
constexpr double kInitialAlpha = 1.0;
}  // namespace

DctcpSender::DctcpSender(net::Host* host, net::NodeId dst, net::FlowId flow,
                         TcpConfig cfg)
    : TcpSender{host, dst, flow, [&cfg] {
        cfg.ecn_capable = true;  // DCTCP requires ECT on every data packet
        return cfg;
      }()},
      alpha_{kInitialAlpha} {}

void DctcpSender::maybe_end_window(SeqNum ack_seq) {
  if (ack_seq < window_end_) return;
  // One window of data has been acked: fold the observed mark fraction
  // into alpha and open the next observation window.
  if (acked_in_window_ > 0) {
    const double frac = static_cast<double>(marked_in_window_) /
                        static_cast<double>(acked_in_window_);
    alpha_ = (1.0 - kG) * alpha_ + kG * frac;
  }
  acked_in_window_ = 0;
  marked_in_window_ = 0;
  cut_this_window_ = false;
  window_end_ = ack_seq + static_cast<SeqNum>(std::max(cwnd(), 1.0));
}

void DctcpSender::cc_on_every_ack(const AckEvent& ev) {
  ++acked_in_window_;
  if (ev.ece) ++marked_in_window_;
  maybe_end_window(ev.ack_seq);

  // React to congestion at most once per window (the DCTCP rule).
  if (ev.ece && !cut_this_window_) {
    cut_this_window_ = true;
    const double reduced = std::max(cwnd() * (1.0 - decrease_factor()), 2.0);
    set_ssthresh(reduced);
    set_cwnd(reduced);
  }
}

void DctcpSender::cc_on_new_ack(const AckEvent& ev) {
  // Growth is standard slow start / congestion avoidance.
  reno_increase(ev.newly_acked);
}

}  // namespace trim::tcp
