#include "tcp/gip.hpp"

#include <algorithm>

namespace trim::tcp {

namespace {
TcpConfig gip_tcp_config(TcpConfig cfg) {
  // GIP's minimum window is 2, like TRIM's (both restart trains at 2).
  cfg.min_cwnd = 2.0;
  cfg.cwnd_after_rto = 2.0;
  if (cfg.initial_cwnd < 2.0) cfg.initial_cwnd = 2.0;
  return cfg;
}
}  // namespace

GipSender::GipSender(net::Host* host, net::NodeId dst, net::FlowId flow,
                     TcpConfig cfg)
    : TcpSender{host, dst, flow, gip_tcp_config(cfg)} {}

bool GipSender::cc_allow_new_segment() {
  // About to transmit the first segment of a new train with nothing in
  // flight: unconditionally restart from the minimum window (the stripe
  // units of the GIP paper map to application messages here).
  if (in_flight() == 0 && is_message_start(snd_next()) && has_sent()) {
    ++train_resets_;
    set_ssthresh(std::max(cwnd() / 2.0, 2.0));
    set_cwnd(2.0);
  }
  return true;
}

void GipSender::cc_after_send(const net::Packet& p, bool retransmission) {
  if (!retransmission && is_message_end(p.seq)) {
    send_redundant_copy(p.seq);
  }
}

}  // namespace trim::tcp
