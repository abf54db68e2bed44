#include "core/trim_sender.hpp"

#include <string>

#include "sim/config_error.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/telemetry.hpp"

namespace trim::core {

namespace {
constexpr double kMinWindow = 2.0;  // TCP minimum window (Sec. III-C)

tcp::TcpConfig trim_tcp_config(tcp::TcpConfig cfg) {
  // TRIM's window never drops below 2, including after an RTO.
  cfg.min_cwnd = kMinWindow;
  cfg.cwnd_after_rto = kMinWindow;
  if (cfg.initial_cwnd < kMinWindow) cfg.initial_cwnd = kMinWindow;
  return cfg;
}
}  // namespace

TrimSender::TrimSender(net::Host* host, net::NodeId dst, net::FlowId flow,
                       tcp::TcpConfig tcp_cfg, TrimConfig trim_cfg)
    : TcpSender{host, dst, flow, trim_tcp_config(tcp_cfg)}, cfg_{trim_cfg} {
  if (cfg_.capacity_pps <= 0.0 && !cfg_.k_override) {
    throw ConfigError{"TrimConfig needs capacity_pps (for Eq. 22) or k_override",
                      "TrimSender, flow " + std::to_string(flow),
                      "capacity_pps > 0, or set k_override"};
  }
  if (cfg_.k_override) k_ = *cfg_.k_override;
}

TrimSender::~TrimSender() {
  if (probe_timer_.valid()) simulator()->cancel(probe_timer_);
}

void TrimSender::update_k() {
  if (cfg_.k_override) return;
  k_ = recommended_k(min_rtt_, cfg_.capacity_pps);
  obs::emit(simulator(), obs::EventKind::kTrimKUpdate, flow_id(),
            k_.to_seconds(), min_rtt_.to_seconds());
}

// ---------------- Algorithm 1: inter-train gap detection ----------------

bool TrimSender::cc_allow_new_segment() {
  if (probing_) {
    // The probe segments themselves may pass; everything else waits until
    // the probe ACKs (or the probe timer) resolve the congestion state.
    return snd_next() < probe_hi_;
  }
  if (!cfg_.probe_on_gap) return true;
  // Probing needs a previous transmission and an RTT baseline; a flow's
  // very first segments are governed by the initial window instead.
  if (!has_sent() || smooth_rtt_ <= sim::SimTime::zero()) return true;
  if (in_recovery()) return true;  // loss recovery owns the window

  const auto gap = simulator()->now() - last_send_time();
  if (gap > smooth_rtt_) {
    obs::emit(simulator(), obs::EventKind::kTrimGapDetected, flow_id(),
              gap.to_seconds(), smooth_rtt_.to_seconds());
    enter_probe_mode();
    return snd_next() < probe_hi_;
  }
  return true;
}

void TrimSender::enter_probe_mode() {
  probing_ = true;
  saved_cwnd_ = cwnd();                       // "saving the accumulated window size"
  probe_lo_ = snd_next();
  // Up to two probes; a 1-segment train still probes (Sec. III-C note).
  probe_hi_ = std::min(probe_lo_ + 2, total_segments());
  probes_sent_ = 0;
  probe_acks_ = 0;
  probe_rtt_sum_ = sim::SimTime::zero();
  set_cwnd(kMinWindow);                       // cwnd <- 2
  ++stats().probe_rounds;
  obs::emit(simulator(), obs::EventKind::kTrimProbeEnter, flow_id(), saved_cwnd_,
            static_cast<double>(probe_hi_ - probe_lo_));
}

void TrimSender::cc_before_send(net::Packet& p) {
  if (probing_ && !p.is_ack && p.seq >= probe_lo_ && p.seq < probe_hi_) {
    ++probes_sent_;
    obs::emit(simulator(), obs::EventKind::kTrimProbeSent, flow_id(),
              static_cast<double>(p.seq), static_cast<double>(probes_sent_));
    // (Re-)arm the probe timer from the latest probe transmission: "if any
    // ACK of probe packet does not come back in a smoothed RTT, set cwnd
    // to 2". Re-arming on each probe keeps the deadline meaningful even
    // when in-flight data delays the second probe.
    if (probe_timer_.valid()) simulator()->cancel(probe_timer_);
    probe_timer_ = simulator()->schedule(smooth_rtt_, [this] {
      probe_timer_ = sim::EventId{};
      if (probing_) finish_probe(/*acks_in_time=*/false);
    });
  }
}

void TrimSender::finish_probe(bool acks_in_time) {
  if (probe_timer_.valid()) {
    simulator()->cancel(probe_timer_);
    probe_timer_ = sim::EventId{};
  }
  probing_ = false;

  if (acks_in_time && min_rtt_ > sim::SimTime::zero() &&
      min_rtt_ < sim::SimTime::max() && probe_acks_ > 0) {
    const auto probe_rtt = probe_rtt_sum_ / probe_acks_;
    // Eq. (1): cwnd = s_cwnd * (1 - (probe_RTT - min_RTT)/min_RTT).
    // For probe_RTT > 2*min_RTT the expression goes non-positive; the
    // implementation note in Sec. III-C clamps at the minimum window.
    const double factor =
        1.0 - (probe_rtt - min_rtt_).to_seconds() / min_rtt_.to_seconds();
    const double tuned = std::max(saved_cwnd_ * factor, kMinWindow);
    set_cwnd(tuned);
    // Continue in congestion avoidance from the tuned operating point
    // rather than slow-starting past it.
    set_ssthresh(tuned);
    obs::emit(simulator(), obs::EventKind::kTrimResumeEq1, flow_id(), tuned,
              probe_rtt.to_seconds());
  } else {
    set_cwnd(kMinWindow);
    set_ssthresh(std::max(saved_cwnd_ / 2.0, kMinWindow));
    obs::emit(simulator(), obs::EventKind::kTrimProbeTimeout, flow_id(),
              kMinWindow, saved_cwnd_);
  }
  try_send();  // resume the suspended transfer
}

// ---------------- Algorithm 2: ACK action ----------------

void TrimSender::cc_on_every_ack(const tcp::AckEvent& ev) {
  // smooth_RTT <- (1 - alpha) * smooth_RTT + alpha * RTT
  if (smooth_rtt_ <= sim::SimTime::zero()) {
    smooth_rtt_ = ev.rtt;
  } else {
    smooth_rtt_ = smooth_rtt_.scaled(1.0 - cfg_.smooth_alpha) +
                  ev.rtt.scaled(cfg_.smooth_alpha);
  }
  if (ev.rtt < min_rtt_) {
    min_rtt_ = ev.rtt;
    update_k();
  }

  if (probing_ && ev.ack_of_seq >= probe_lo_ && ev.ack_of_seq < probe_hi_ &&
      probes_sent_ > 0) {
    probe_rtt_sum_ += ev.rtt;
    ++probe_acks_;
    obs::emit(simulator(), obs::EventKind::kTrimProbeAck, flow_id(),
              static_cast<double>(ev.ack_of_seq), ev.rtt.to_seconds());
    if (auto* t = obs::telemetry_of(simulator())) {
      t->core().probe_rtt_us->observe(ev.rtt.to_micros());
    }
    const auto probe_count = static_cast<int>(probe_hi_ - probe_lo_);
    if (probe_acks_ >= probe_count) finish_probe(/*acks_in_time=*/true);
    return;
  }

  // Queue control: RTT >= K means packets are sitting in the switch queue.
  if (cfg_.queue_control && !probing_ && k_ < sim::SimTime::max() &&
      ev.rtt >= k_ && ev.ack_seq >= next_decrease_seq_) {
    const double ep = (ev.rtt - k_).to_seconds() / ev.rtt.to_seconds();  // Eq. 2
    const double reduced = cwnd() * (1.0 - ep / 2.0);                    // Eq. 3
    set_cwnd(std::max(reduced, kMinWindow));
    set_ssthresh(cwnd());
    next_decrease_seq_ = snd_next();  // one reduction per window of data
    ++stats().delay_backoffs;
    obs::emit(simulator(), obs::EventKind::kTrimQueueCutEq3, flow_id(), ep,
              cwnd());
    if (auto* t = obs::telemetry_of(simulator())) {
      t->core().eq3_ep->observe(ep);
    }
  }
}

void TrimSender::cc_on_new_ack(const tcp::AckEvent& ev) {
  // Growth is Reno's; the delay-based reductions above keep it smooth.
  reno_increase(ev.newly_acked);
}

void TrimSender::cc_on_timeout() {
  // Abort any in-progress probe; the RTO machinery owns recovery now.
  if (probing_) {
    if (probe_timer_.valid()) {
      simulator()->cancel(probe_timer_);
      probe_timer_ = sim::EventId{};
    }
    probing_ = false;
  }
  TcpSender::cc_on_timeout();  // ssthresh = flight/2, cwnd = 2 (config floor)
}

}  // namespace trim::core
