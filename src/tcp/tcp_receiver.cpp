#include "tcp/tcp_receiver.hpp"

#include <string>

#include "sim/config_error.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/telemetry.hpp"
#include "tcp/listen_queue.hpp"

namespace trim::tcp {

TcpReceiver::TcpReceiver(net::Host* host, net::FlowId flow, net::NodeId peer,
                         ReceiverConfig cfg)
    : host_{host},
      flow_{flow},
      peer_{peer},
      cfg_{cfg},
      sim_{host != nullptr ? host->simulator() : nullptr} {
  if (host_ == nullptr) {
    throw ConfigError{"null host",
                      "TcpReceiver, flow " + std::to_string(flow_)};
  }
  validate(cfg_.lifecycle);
  lifecycle_active_ = cfg_.expect_handshake;
  host_->register_agent(flow_, this);
}

TcpReceiver::~TcpReceiver() {
  cancel_ctrl_retx();
  if (time_wait_timer_.valid()) sim_->cancel(time_wait_timer_);
  host_->unregister_agent(flow_);
}

void TcpReceiver::on_packet(const net::Packet& p) {
  if (p.rst) {
    if (lifecycle_active_ && conn_ != ConnState::kClosed &&
        conn_ != ConnState::kListen) {
      handle_rst_received();
    }
    return;
  }
  if (p.syn && !p.is_ack) {
    handle_syn(p);
    return;
  }
  if (p.is_ack) {
    // Legacy receivers only consume data; with the lifecycle active, pure
    // ACKs from the sender are handshake/teardown control.
    if (lifecycle_active_) handle_ctrl_ack(p);
    return;
  }
  if (lifecycle_active_ && p.fin) {  // the sender's FIN, sequenced like data
    handle_data_fin(p);
    return;
  }

  if (lifecycle_active_) {
    if (conn_ == ConnState::kListen || conn_ == ConnState::kClosed) {
      // Data with no connection open: the sender never does this (data is
      // gated on ESTABLISHED), so count it for the invariant checker and
      // answer RST like a real stack answers a half-open discovery.
      ++data_before_established_;
      send_rst();
      return;
    }
    // First data completes the handshake when our SYN-ACK's ACK was lost.
    if (conn_ == ConnState::kSynRcvd) become_established();
  }

  ++received_data_packets_;
  if (p.ecn == net::EcnCodepoint::kCe) ++ce_marked_packets_;

  if (p.seq < rcv_next_) {
    ++duplicate_data_packets_;  // spurious retransmission
  } else if (p.seq == rcv_next_) {
    std::uint64_t newly = p.payload_bytes;
    ++rcv_next_;
    // Drain buffered runs made contiguous by this arrival. Intervals are
    // non-adjacent, so at most one starts at the new rcv_next_.
    while (!ooo_.empty() && ooo_.front().begin == rcv_next_) {
      newly += ooo_.front().bytes;
      rcv_next_ = ooo_.front().end;
      ooo_.erase(ooo_.begin());
    }
    delivered_bytes_ += newly;
    if (on_deliver_) on_deliver_(newly);
  } else {
    if (!buffer_out_of_order(p.seq, p.payload_bytes)) ++duplicate_data_packets_;
  }
  send_ack(p);
}

// ---- lifecycle: passive open / close ----

void TcpReceiver::set_conn_state(ConnState next) {
  if (conn_ == next) return;
  obs::emit(sim_, obs::EventKind::kConnStateChange, flow_,
            static_cast<double>(next), static_cast<double>(conn_));
  conn_ = next;
}

void TcpReceiver::handle_syn(const net::Packet& p) {
  lifecycle_active_ = true;
  switch (conn_) {
    case ConnState::kListen: {
      auto verdict = ListenQueue::Verdict::kAccept;
      if (listen_queue_ != nullptr) verdict = listen_queue_->on_syn(flow_);
      if (verdict == ListenQueue::Verdict::kDrop) {
        // Backlog full, drop policy: pretend the SYN never arrived; the
        // client's retransmission retries the queue.
        obs::emit(sim_, obs::EventKind::kBacklogDrop, flow_,
                  static_cast<double>(listen_queue_->occupancy()), 0.0);
        return;
      }
      if (verdict == ListenQueue::Verdict::kRst) {
        obs::emit(sim_, obs::EventKind::kBacklogDrop, flow_,
                  static_cast<double>(listen_queue_->occupancy()), 1.0);
        send_rst();
        return;
      }
      set_conn_state(ConnState::kSynRcvd);
      rcv_next_ = 1;  // the SYN consumed wire slot 0
      syn_seen_at_ = sim_->now();
      ++lstats_.synack_sent;
      retx_count_ = 0;
      // Lifecycle events carry the rx-endpoint subject (events.hpp): the
      // passive side is its own state machine for the span tracer.
      obs::emit(sim_, obs::EventKind::kConnSynSent, obs::rx_subject(flow_),
                /*a=*/1.0);
      send_synack(p.ts);
      arm_ctrl_retx();
      return;
    }
    case ConnState::kSynRcvd:
      // Retransmitted SYN (our SYN-ACK was lost): answer again with the
      // fresh timestamp echo. The backlog slot is already held.
      send_synack(p.ts);
      return;
    case ConnState::kClosed:
      // The old incarnation is gone; nothing listens here anymore.
      send_rst();
      return;
    default:
      // SYN into a live connection. Challenge-ACK, never reset: a stale or
      // spoofed SYN must not kill an established connection (RFC 5961; the
      // 2020 Tokyo Stock Exchange outage is the canonical casualty of
      // getting this path wrong).
      ++lstats_.challenge_acks;
      obs::emit(sim_, obs::EventKind::kChallengeAck, flow_,
                static_cast<double>(conn_));
      send_challenge_ack(p);
      return;
  }
}

void TcpReceiver::handle_ctrl_ack(const net::Packet& p) {
  if (p.syn) return;  // a SYN-ACK has no business arriving here
  switch (conn_) {
    case ConnState::kSynRcvd:
      become_established();
      break;
    case ConnState::kFinWait1:
      if (p.ack_of_seq == 1) {  // 1 names our control FIN
        set_conn_state(ConnState::kFinWait2);
        retx_count_ = 0;
        cancel_ctrl_retx();
      }
      break;
    case ConnState::kClosing:
      if (p.ack_of_seq == 1) enter_time_wait();
      break;
    case ConnState::kLastAck:
      if (p.ack_of_seq == 1) finish_closed(/*graceful=*/true);
      break;
    default:
      break;  // duplicate handshake ACK etc.
  }
}

void TcpReceiver::handle_data_fin(const net::Packet& p) {
  if (conn_ == ConnState::kSynRcvd) become_established();
  if (p.seq != rcv_next_) {
    // A duplicate FIN (already consumed) or a FIN ahead of missing data.
    // Either way the cumulative ACK below says exactly what we still
    // expect; the out-of-order FIN is not buffered (simplification — the
    // sender retransmits it after the hole is repaired).
    send_ack(p);
    return;
  }
  ++rcv_next_;  // the FIN consumes one wire slot
  send_ack(p);  // cumulative ack now covers the FIN
  switch (conn_) {
    case ConnState::kEstablished:
      set_conn_state(ConnState::kCloseWait);
      if (cfg_.lifecycle.auto_close_on_peer_fin) close();
      break;
    case ConnState::kFinWait1:
      set_conn_state(ConnState::kClosing);  // simultaneous close
      break;
    case ConnState::kFinWait2:
      enter_time_wait();
      break;
    default:
      break;
  }
}

void TcpReceiver::handle_rst_received() {
  ++lstats_.rst_received;
  if (listen_queue_ != nullptr && conn_ == ConnState::kSynRcvd) {
    listen_queue_->on_aborted(flow_);
  }
  finish_closed(/*graceful=*/false);
}

void TcpReceiver::become_established() {
  set_conn_state(ConnState::kEstablished);
  cancel_ctrl_retx();
  retx_count_ = 0;
  if (listen_queue_ != nullptr) listen_queue_->on_established(flow_);
  lstats_.ever_established = true;
  lstats_.setup_latency = sim_->now() - syn_seen_at_;
  obs::emit(sim_, obs::EventKind::kConnEstablished, obs::rx_subject(flow_),
            lstats_.setup_latency.to_seconds(),
            static_cast<double>(lstats_.synack_retx));
}

void TcpReceiver::send_synack(sim::SimTime echo_ts) {
  net::Packet synack;
  synack.dst = peer_;
  synack.flow = flow_;
  synack.is_ack = true;
  synack.syn = true;
  synack.seq = lifecycle_active_ ? rcv_next_ : 0;
  synack.ts = echo_ts;  // timestamp echo for the handshake RTT sample
  host_->send(std::move(synack));
}

void TcpReceiver::send_fin_packet() {
  net::Packet fin;
  fin.dst = peer_;
  fin.flow = flow_;
  fin.is_ack = true;  // travels on the ACK path, like every receiver packet
  fin.fin = true;
  fin.seq = rcv_next_;  // doubles as the cumulative ack, like any ACK
  host_->send(std::move(fin));
}

void TcpReceiver::send_rst() {
  ++lstats_.rst_sent;
  obs::emit(sim_, obs::EventKind::kRstSent, flow_,
            static_cast<double>(conn_));
  net::Packet rst;
  rst.dst = peer_;
  rst.flow = flow_;
  rst.is_ack = true;
  rst.rst = true;
  host_->send(std::move(rst));
}

void TcpReceiver::send_challenge_ack(const net::Packet& p) {
  net::Packet ack;
  ack.dst = peer_;
  ack.flow = flow_;
  ack.is_ack = true;
  ack.seq = rcv_next_;
  ack.ack_of_seq = 0;
  ack.ts = p.ts;
  host_->send(std::move(ack));
}

void TcpReceiver::arm_ctrl_retx() {
  cancel_ctrl_retx();
  auto rto = cfg_.lifecycle.retx_rto_initial;
  for (int i = 0; i < retx_count_; ++i) {
    rto = std::min(rto * 2, cfg_.lifecycle.retx_rto_max);
  }
  retx_timer_ = sim_->schedule(rto, [this] { on_ctrl_retx(); });
}

void TcpReceiver::cancel_ctrl_retx() {
  if (retx_timer_.valid()) {
    sim_->cancel(retx_timer_);
    retx_timer_ = sim::EventId{};
  }
}

void TcpReceiver::on_ctrl_retx() {
  retx_timer_ = sim::EventId{};
  if (conn_ == ConnState::kSynRcvd) {
    if (retx_count_ >= cfg_.lifecycle.max_syn_retries) {
      send_rst();
      if (listen_queue_ != nullptr) listen_queue_->on_aborted(flow_);
      finish_closed(/*graceful=*/false);
      return;
    }
    ++retx_count_;
    ++lstats_.synack_retx;
    obs::emit(sim_, obs::EventKind::kSynRetx, flow_,
              static_cast<double>(retx_count_), /*b=*/1.0);
    send_synack(sim::SimTime::zero());  // no echo: Karn's rule at the sender
    arm_ctrl_retx();
    return;
  }
  if (fin_sent_ && (conn_ == ConnState::kFinWait1 ||
                    conn_ == ConnState::kClosing ||
                    conn_ == ConnState::kLastAck)) {
    if (retx_count_ >= cfg_.lifecycle.max_fin_retries) {
      send_rst();
      finish_closed(/*graceful=*/false);
      return;
    }
    ++retx_count_;
    ++lstats_.fin_retx;
    obs::emit(sim_, obs::EventKind::kFinRetx, flow_,
              static_cast<double>(retx_count_), /*b=*/1.0);
    send_fin_packet();
    arm_ctrl_retx();
  }
}

void TcpReceiver::close() {
  if (!lifecycle_active_ || fin_sent_) return;
  switch (conn_) {
    case ConnState::kEstablished:
      fin_sent_ = true;
      ++lstats_.fin_sent;
      retx_count_ = 0;
      set_conn_state(ConnState::kFinWait1);
      send_fin_packet();
      arm_ctrl_retx();
      break;
    case ConnState::kCloseWait:
      fin_sent_ = true;
      ++lstats_.fin_sent;
      retx_count_ = 0;
      set_conn_state(ConnState::kLastAck);
      send_fin_packet();
      arm_ctrl_retx();
      break;
    default:
      break;  // nothing open, or teardown already under way
  }
}

void TcpReceiver::enter_time_wait() {
  cancel_ctrl_retx();
  set_conn_state(ConnState::kTimeWait);
  obs::emit(sim_, obs::EventKind::kConnTimeWaitEnter, obs::rx_subject(flow_),
            cfg_.lifecycle.time_wait.to_seconds());
  if (time_wait_timer_.valid()) sim_->cancel(time_wait_timer_);
  time_wait_timer_ = sim_->schedule(cfg_.lifecycle.time_wait, [this] {
    obs::emit(sim_, obs::EventKind::kConnTimeWaitExpire,
              obs::rx_subject(flow_));
    finish_closed(true);
  });
}

void TcpReceiver::finish_closed(bool graceful) {
  cancel_ctrl_retx();
  if (time_wait_timer_.valid()) {
    sim_->cancel(time_wait_timer_);
    time_wait_timer_ = sim::EventId{};
  }
  lstats_.graceful_close = graceful;
  obs::emit(sim_, obs::EventKind::kConnClosed, obs::rx_subject(flow_),
            graceful ? 1.0 : 0.0, static_cast<double>(conn_));
  set_conn_state(ConnState::kClosed);
  for (const auto& cb : on_closed_) cb(graceful, sim_->now());
}

// ---- data-path helpers ----

bool TcpReceiver::buffer_out_of_order(SeqNum seq, std::uint32_t payload) {
  // First interval whose end reaches seq: the only candidate that can
  // contain seq or absorb it by extension.
  const auto it = std::lower_bound(
      ooo_.begin(), ooo_.end(), seq,
      [](const Interval& iv, SeqNum s) { return iv.end < s; });

  if (it != ooo_.end() && it->begin <= seq && seq < it->end) {
    return false;  // already buffered
  }
  if (it != ooo_.end() && seq == it->end) {
    // Grows `it` on the right; may bridge the gap to the next interval.
    ++it->end;
    it->bytes += payload;
    const auto next = std::next(it);
    if (next != ooo_.end() && next->begin == it->end) {
      it->end = next->end;
      it->bytes += next->bytes;
      ooo_.erase(next);
    }
    return true;
  }
  if (it != ooo_.end() && seq + 1 == it->begin) {
    // Grows `it` on the left. It cannot touch the previous interval:
    // lower_bound skipped that one, so its end is < seq.
    it->begin = seq;
    it->bytes += payload;
    return true;
  }
  ooo_.insert(it, {seq, seq + 1, payload});
  return true;
}

void TcpReceiver::send_ack(const net::Packet& data) {
  net::Packet ack;
  ack.dst = peer_;
  ack.flow = flow_;
  ack.is_ack = true;
  ack.seq = rcv_next_;
  ack.ack_of_seq = data.seq;
  ack.payload_bytes = 0;
  ack.ece = data.ecn == net::EcnCodepoint::kCe;
  ack.ts = data.ts;  // timestamp echo
  ++acks_sent_;
  host_->send(std::move(ack));
}

}  // namespace trim::tcp
