// GIP (Zhang, Ren, Tang, Lin — ICNP 2013, "Taming TCP Incast"), the
// conservative alternative the paper contrasts TRIM against ([13] in the
// related work): every new packet train starts with the minimum window of
// 2 to minimize loss probability, and the last packet of each train is
// transmitted redundantly so a tail drop cannot strand the train in an
// RTO. The paper's critique — which the bench_related_delay harness
// quantifies — is that the unconditional reset underutilizes the
// bottleneck whenever capacity is actually available; TRIM's probes
// recover the inherited window in one RTT instead.
#pragma once

#include "tcp/tcp_sender.hpp"

namespace trim::tcp {

class GipSender : public TcpSender {
 public:
  GipSender(net::Host* host, net::NodeId dst, net::FlowId flow, TcpConfig cfg);

  Protocol protocol() const override { return Protocol::kGip; }

  std::uint64_t train_resets() const { return train_resets_; }

 protected:
  bool cc_allow_new_segment() override;
  void cc_after_send(const net::Packet& p, bool retransmission) override;

 private:
  std::uint64_t train_resets_ = 0;
};

}  // namespace trim::tcp
