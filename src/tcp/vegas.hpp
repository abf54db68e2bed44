// TCP Vegas (Brakmo et al., SIGCOMM 1994) — the classic delay-based
// congestion control the paper cites as ancestry for its Eq. 2-3 queue
// control ([21] in the related work). Included as an extra baseline so
// TRIM's delay machinery can be compared against the canonical scheme.
//
// Once per RTT, Vegas estimates the backlog it keeps in the bottleneck
// queue:  diff = cwnd * (1 - baseRTT/observedRTT)  packets. In congestion
// avoidance it nudges cwnd by +-1 to keep alpha <= diff <= beta; in slow
// start it doubles only every other RTT and exits once diff exceeds gamma.
#pragma once

#include "tcp/tcp_sender.hpp"

namespace trim::tcp {

class VegasSender : public TcpSender {
 public:
  VegasSender(net::Host* host, net::NodeId dst, net::FlowId flow, TcpConfig cfg);

  Protocol protocol() const override { return Protocol::kVegas; }

  double last_diff() const { return last_diff_; }

 protected:
  void cc_on_every_ack(const AckEvent& ev) override;
  void cc_on_new_ack(const AckEvent& ev) override;

 private:
  void end_epoch();

  sim::SimTime base_rtt_ = sim::SimTime::max();
  sim::SimTime epoch_rtt_sum_;
  std::uint64_t epoch_rtt_samples_ = 0;
  SeqNum epoch_end_ = 0;
  bool in_vegas_ss_ = true;
  bool grow_this_epoch_ = true;  // slow start doubles every *other* RTT
  double last_diff_ = 0.0;
};

}  // namespace trim::tcp
