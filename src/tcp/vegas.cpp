#include "tcp/vegas.hpp"

#include <algorithm>

namespace trim::tcp {

namespace {
constexpr double kAlpha = 1.0;  // lower backlog target (packets)
constexpr double kBeta = 3.0;   // upper backlog target
constexpr double kGamma = 1.0;  // slow-start exit threshold
}  // namespace

VegasSender::VegasSender(net::Host* host, net::NodeId dst, net::FlowId flow,
                         TcpConfig cfg)
    : TcpSender{host, dst, flow, cfg} {}

void VegasSender::cc_on_every_ack(const AckEvent& ev) {
  base_rtt_ = std::min(base_rtt_, ev.rtt);
  epoch_rtt_sum_ += ev.rtt;
  ++epoch_rtt_samples_;
}

void VegasSender::end_epoch() {
  if (epoch_rtt_samples_ == 0 || base_rtt_ == sim::SimTime::max()) return;
  const double observed =
      (epoch_rtt_sum_ / static_cast<std::int64_t>(epoch_rtt_samples_)).to_seconds();
  epoch_rtt_sum_ = sim::SimTime::zero();
  epoch_rtt_samples_ = 0;
  if (observed <= 0.0) return;

  // diff = cwnd * (1 - baseRTT / observedRTT): the number of packets this
  // connection keeps queued in the bottleneck. target = the window that
  // would queue nothing (Linux tcp_vegas's target_cwnd).
  const double base = base_rtt_.to_seconds();
  last_diff_ = cwnd() * (1.0 - base / observed);
  const double target = cwnd() * base / observed;

  if (in_vegas_ss_) {
    if (last_diff_ > kGamma) {
      // Going too fast: leave slow start and fall back to the no-queue
      // target window (tcp_vegas.c does the same clamp).
      in_vegas_ss_ = false;
      set_cwnd(std::max(std::min(cwnd(), target + 1.0), config().min_cwnd));
      set_ssthresh(cwnd());
    } else if (grow_this_epoch_) {
      set_cwnd(cwnd() * 2.0);
    }
    grow_this_epoch_ = !grow_this_epoch_;
  } else {
    if (last_diff_ < kAlpha) {
      set_cwnd(cwnd() + 1.0);
    } else if (last_diff_ > kBeta) {
      set_cwnd(std::max(cwnd() - 1.0, config().min_cwnd));
    }
    // inside [alpha, beta]: hold.
  }
}

void VegasSender::cc_on_new_ack(const AckEvent& ev) {
  if (ev.ack_seq >= epoch_end_) {
    end_epoch();
    epoch_end_ = snd_next();
  }
  // No per-ACK additive increase: Vegas adjusts only at epoch boundaries.
}

}  // namespace trim::tcp
