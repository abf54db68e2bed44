// DCTCP (Alizadeh et al., SIGCOMM 2010) — ECN-based comparison protocol
// (paper Fig. 12, Table I).
//
// The switch marks CE above an instantaneous threshold K; the receiver
// echoes marks per ACK (exact with per-packet ACKing); the sender keeps an
// EWMA `alpha` of the marked fraction per window of data and, in any
// window containing marks, cuts once:  cwnd *= (1 - alpha/2).
// Loss behaves like Reno (DCTCP changes nothing on drops).
#pragma once

#include "tcp/tcp_sender.hpp"

namespace trim::tcp {

class DctcpSender : public TcpSender {
 public:
  DctcpSender(net::Host* host, net::NodeId dst, net::FlowId flow, TcpConfig cfg);

  Protocol protocol() const override { return Protocol::kDctcp; }

  double alpha() const { return alpha_; }

 protected:
  void cc_on_every_ack(const AckEvent& ev) override;
  void cc_on_new_ack(const AckEvent& ev) override;

  // Fraction-based multiplicative decrease; exposed so L2DCT can reuse the
  // alpha machinery while scaling the cut.
  virtual double decrease_factor() const { return alpha_ / 2.0; }

 private:
  void maybe_end_window(SeqNum ack_seq);

  double alpha_;
  std::uint64_t acked_in_window_ = 0;
  std::uint64_t marked_in_window_ = 0;
  SeqNum window_end_ = 0;     // alpha update boundary (snd_una at window start + cwnd)
  bool cut_this_window_ = false;
};

}  // namespace trim::tcp
