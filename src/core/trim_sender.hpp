// TCP-TRIM — the paper's contribution (Section III).
//
// A sender-only TCP modification for persistent HTTP connections:
//
//  * Inter-train gap detection (Algorithm 1). Before a *new* (never-sent)
//    segment goes out, if the time since the last transmission exceeds the
//    smoothed RTT, the sender saves the accumulated window, drops cwnd to
//    2, sends the next (up to) two segments as probe packets, and suspends
//    further new transmission.
//
//  * ACK processing (Algorithm 2). Every ACK updates
//    smooth_RTT = (1-alpha)*smooth_RTT + alpha*RTT (alpha = 0.25), the
//    running min_RTT, and — whenever min_RTT improves — the threshold K
//    per Eq. 22. Probe ACKs returning within a smooth_RTT tune the window
//    to  s_cwnd * (1 - (probe_RTT - min_RTT)/min_RTT)  (Eq. 1, clamped at
//    the TCP minimum of 2); a probe timeout resumes with cwnd = 2. Normal
//    ACKs drive delay-based queue control: when RTT >= K, the congestion
//    extent ep = (RTT-K)/RTT (Eq. 2) cuts the window once per window of
//    data to cwnd*(1 - ep/2) (Eq. 3) — deliberately never more aggressive
//    than a legacy-TCP halving.
//
// Loss recovery (fast retransmit / RTO) is inherited from the Reno base;
// the minimum window is 2 everywhere (Sec. III-C), including after RTOs.
#pragma once

#include <optional>

#include "core/k_guideline.hpp"
#include "tcp/tcp_sender.hpp"

namespace trim::core {

struct TrimConfig {
  // Weight of a new RTT sample in smooth_RTT (the paper uses 0.25).
  static constexpr double smooth_alpha = 0.25;
  // Bottleneck capacity C in packets/second used by Eq. 22. End hosts know
  // their NIC rate, which equals the receiver-side bottleneck in the
  // paper's many-to-one scenarios. Use capacity_from_link() to derive it.
  double capacity_pps = 0.0;
  // Fixed K override; when unset K tracks min_RTT via Eq. 22.
  std::optional<sim::SimTime> k_override;
  // Ablation switches (both on in the paper).
  bool probe_on_gap = true;
  bool queue_control = true;

  static TrimConfig for_link(std::uint64_t bits_per_sec, std::uint32_t mss_bytes) {
    TrimConfig cfg;
    cfg.capacity_pps = packets_per_second(bits_per_sec, mss_bytes);
    return cfg;
  }
};

class TrimSender : public tcp::TcpSender {
 public:
  TrimSender(net::Host* host, net::NodeId dst, net::FlowId flow,
             tcp::TcpConfig tcp_cfg, TrimConfig trim_cfg);
  // Cancels a pending probe timer: its callback captures `this`.
  ~TrimSender() override;

  tcp::Protocol protocol() const override { return tcp::Protocol::kTrim; }

  // Introspection for tests and traces.
  sim::SimTime smooth_rtt() const { return smooth_rtt_; }
  sim::SimTime min_rtt() const { return min_rtt_; }
  sim::SimTime k_threshold() const { return k_; }
  bool probing() const { return probing_; }
  const TrimConfig& trim_config() const { return cfg_; }

  // Liveness introspection (see TcpSender): while probing, forward
  // progress depends on the probe timer (or the RTO as backstop).
  bool cc_suspended() const override { return probing_; }
  bool cc_wakeup_pending() const override { return probe_timer_.valid(); }

 protected:
  void cc_on_every_ack(const tcp::AckEvent& ev) override;
  void cc_on_new_ack(const tcp::AckEvent& ev) override;
  void cc_on_timeout() override;
  bool cc_allow_new_segment() override;
  void cc_before_send(net::Packet& p) override;

 private:
  void update_k();
  void enter_probe_mode();
  void finish_probe(bool acks_in_time);

  TrimConfig cfg_;

  sim::SimTime smooth_rtt_;                 // zero until the first sample
  sim::SimTime min_rtt_ = sim::SimTime::max();
  sim::SimTime k_ = sim::SimTime::max();    // until first min_RTT

  // Probe state (Algorithm 1).
  bool probing_ = false;
  double saved_cwnd_ = 0.0;
  tcp::SeqNum probe_lo_ = 0, probe_hi_ = 0;  // probe segment range
  int probes_sent_ = 0;
  int probe_acks_ = 0;
  sim::SimTime probe_rtt_sum_;
  sim::EventId probe_timer_;

  // Queue control (Eq. 3): at most one reduction per window of data.
  tcp::SeqNum next_decrease_seq_ = 0;
};

}  // namespace trim::core
