#include "tcp/tcp_sender.hpp"

#include <string>

#include "sim/config_error.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "mem/sim_memory.hpp"
#include "obs/telemetry.hpp"

namespace trim::tcp {

namespace {
constexpr double kInitialSsthresh = 1e9;  // "infinite": slow start until loss
}

TcpSender::TcpSender(net::Host* host, net::NodeId dst, net::FlowId flow, TcpConfig cfg)
    : host_{host},
      dst_{dst},
      flow_{flow},
      cfg_{cfg},
      sim_{host != nullptr ? host->simulator() : nullptr},
      cwnd_{cfg.initial_cwnd},
      ssthresh_{kInitialSsthresh},
      established_{!cfg.simulate_handshake} {
  if (host_ == nullptr) {
    throw ConfigError{"null host",
                      "TcpSender, flow " + std::to_string(flow_)};
  }
  if (cfg_.simulate_handshake) validate(cfg_.lifecycle);
  host_->register_agent(flow_, this);
  if (mem::SimMemory* m = mem::memory_of(sim_)) {
    census_ = &m->hot;
    census_->add();
  }
}

TcpSender::~TcpSender() {
  cancel_rto();
  if (time_wait_timer_.valid()) {
    sim_->cancel(time_wait_timer_);
    time_wait_timer_ = sim::EventId{};
  }
  host_->unregister_agent(flow_);
  if (census_ != nullptr) census_->remove();
}

std::uint64_t TcpSender::write(std::uint64_t bytes) {
  if (bytes == 0) {
    throw ConfigError{"zero-byte message",
                      "TcpSender::write, flow " + std::to_string(flow_),
                      ">= 1 byte"};
  }
  if (close_requested_) {
    throw ConfigError{"write after close",
                      "TcpSender::write, flow " + std::to_string(flow_),
                      "no writes once close() has been called"};
  }
  if (lifecycle() && conn_ != ConnState::kClosed &&
      conn_ != ConnState::kSynSent && conn_ != ConnState::kEstablished) {
    throw ConfigError{"write on a closing connection",
                      "TcpSender::write, flow " + std::to_string(flow_) +
                          ", state " + to_string(conn_),
                      "CLOSED, SYN_SENT or ESTABLISHED"};
  }
  const SeqNum first_seg = total_segments_;
  const std::uint64_t start_byte = bytes_written_;
  const std::uint64_t nsegs = (bytes + cfg_.mss - 1) / cfg_.mss;
  const auto tail = static_cast<std::uint32_t>(bytes - (nsegs - 1) * cfg_.mss);
  bytes_written_ += bytes;
  total_segments_ += nsegs;

  const auto msg_id = stats_.begin_message(bytes, sim_->now());
  messages_.push_back(
      {first_seg, total_segments_ - 1, start_byte, bytes_written_, msg_id, tail});

  if (!established_ && !syn_sent_) {
    send_syn();
  } else {
    try_send();
  }
  return msg_id;
}

const TcpSender::MessageRecord* TcpSender::find_message(SeqNum seq) const {
  // Binary search the outstanding records by first segment. The ring is
  // sorted (messages are appended in write order and popped from the
  // front), and callers only ever ask about unacked segments, whose
  // records are guaranteed to still be present.
  std::size_t lo = 0;
  std::size_t hi = messages_.size();
  while (lo < hi) {  // upper_bound on first_seg
    const std::size_t mid = lo + (hi - lo) / 2;
    if (seq < messages_[mid].first_seg) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  if (lo == 0) return nullptr;
  const MessageRecord& r = messages_[lo - 1];
  return seq <= r.last_seg ? &r : nullptr;
}

std::uint32_t TcpSender::segment_payload_bytes(SeqNum seq) const {
  const MessageRecord* r = find_message(seq);
  assert(r != nullptr);
  return seq == r->last_seg ? r->tail_bytes : cfg_.mss;
}

std::uint64_t TcpSender::bytes_upto(SeqNum seq) const {
  if (seq >= total_segments_) return bytes_written_;
  // Segment `seq` is unacked, so its record is live; every segment before
  // it inside the same message is a full MSS.
  const MessageRecord* r = find_message(seq);
  assert(r != nullptr);
  return r->start_byte + (seq - r->first_seg) * static_cast<std::uint64_t>(cfg_.mss);
}

bool TcpSender::is_message_start(SeqNum seq) const {
  const MessageRecord* r = find_message(seq);
  return r != nullptr && r->first_seg == seq;
}

bool TcpSender::is_message_end(SeqNum seq) const {
  const MessageRecord* r = find_message(seq);
  return r != nullptr && r->last_seg == seq;
}

void TcpSender::send_syn() {
  if (!syn_sent_) {
    syn_sent_ = true;
    syn_first_sent_ = sim_->now();
    ++lstats_.syn_sent;
    set_conn_state(ConnState::kSynSent);
    obs::emit(sim_, obs::EventKind::kConnSynSent, flow_, /*a=*/0.0);
  }
  net::Packet p;
  p.dst = dst_;
  p.flow = flow_;
  p.syn = true;
  p.seq = 0;  // the SYN occupies wire slot 0 of the sequence space
  p.ts = sim_->now();
  host_->send(std::move(p));
  if (!rto_timer_.valid()) arm_rto();
}

void TcpSender::connect() {
  if (!lifecycle()) {
    throw ConfigError{"connect() without lifecycle simulation",
                      "TcpSender::connect, flow " + std::to_string(flow_),
                      "set TcpConfig::simulate_handshake"};
  }
  if (conn_ == ConnState::kClosed && !syn_sent_) send_syn();
}

void TcpSender::close() {
  if (!lifecycle()) {
    throw ConfigError{"close() without lifecycle simulation",
                      "TcpSender::close, flow " + std::to_string(flow_),
                      "set TcpConfig::simulate_handshake"};
  }
  if (close_requested_) return;
  close_requested_ = true;
  if (conn_ == ConnState::kClosed && !syn_sent_) return;  // never opened
  maybe_send_fin();
}

void TcpSender::abort() {
  if (!lifecycle() || conn_ == ConnState::kClosed) return;
  send_rst();
  finish_closed(/*graceful=*/false);
}

SeqNum TcpSender::internal_ack(SeqNum wire) const {
  if (!lifecycle()) return wire;
  const SeqNum shifted = wire > 0 ? wire - 1 : 0;
  return std::min<SeqNum>(shifted, total_segments_);
}

void TcpSender::set_conn_state(ConnState next) {
  if (conn_ == next) return;
  obs::emit(sim_, obs::EventKind::kConnStateChange, flow_,
            static_cast<double>(next), static_cast<double>(conn_));
  conn_ = next;
}

void TcpSender::send_handshake_ack() {
  net::Packet p;
  p.dst = dst_;
  p.flow = flow_;
  p.is_ack = true;
  p.seq = 0;
  p.ack_of_seq = 0;  // 0 = handshake ACK; 1 = ACK of the receiver's FIN
  p.ts = sim_->now();
  host_->send(std::move(p));
}

void TcpSender::maybe_send_fin() {
  if (!close_requested_ || fin_sent_ || !established_) return;
  if (conn_ != ConnState::kEstablished && conn_ != ConnState::kCloseWait) return;
  if (snd_una() != total_segments_) return;  // FIN waits for the data
  fin_wire_seq_ = total_segments_ + 1;
  ctrl_retries_ = 0;
  set_conn_state(conn_ == ConnState::kCloseWait ? ConnState::kLastAck
                                                : ConnState::kFinWait1);
  send_fin();
  arm_rto();
}

void TcpSender::send_fin() {
  ++lstats_.fin_sent;
  fin_sent_ = true;
  net::Packet p;
  p.dst = dst_;
  p.flow = flow_;
  p.fin = true;
  p.seq = fin_wire_seq_;
  p.ts = sim_->now();
  host_->send(std::move(p));
}

void TcpSender::send_rst() {
  ++lstats_.rst_sent;
  obs::emit(sim_, obs::EventKind::kRstSent, flow_,
            static_cast<double>(conn_));
  net::Packet p;
  p.dst = dst_;
  p.flow = flow_;
  p.rst = true;
  p.ts = sim_->now();
  host_->send(std::move(p));
}

void TcpSender::handle_syn_ack(const net::Packet& p) {
  if (established_) {
    // Duplicate SYN-ACK: our handshake ACK was lost. Re-ack.
    if (lifecycle()) send_handshake_ack();
    return;
  }
  // Not yet established, so the lifecycle is on (see established_).
  established_ = true;
  ctrl_retries_ = 0;
  rto_backoff_ = 0;
  // ts == 0 marks a receiver-timer retransmission with no fresh timestamp
  // echo (Karn's rule: no RTT sample from a retransmitted exchange).
  if (p.ts > sim::SimTime::zero()) rtt_.add_sample(sim_->now() - p.ts);
  cancel_rto();
  lstats_.ever_established = true;
  lstats_.setup_latency = sim_->now() - syn_first_sent_;
  set_conn_state(ConnState::kEstablished);
  obs::emit(sim_, obs::EventKind::kConnEstablished, flow_,
            lstats_.setup_latency.to_seconds(),
            static_cast<double>(lstats_.syn_retx));
  send_handshake_ack();
  try_send();
  maybe_send_fin();  // close() may have arrived while the SYN was in flight
}

void TcpSender::handle_peer_fin(const net::Packet& p) {
  // The receiver's FIN doubles as a cumulative ACK (its `seq` is the
  // receiver's rcv_next_), but by construction it only goes out once every
  // data byte — and, in simultaneous close, possibly our FIN — is acked,
  // so only the FIN-ack content matters here.
  if (fin_sent_ && !fin_acked_ && p.seq >= fin_wire_seq_ + 1) {
    fin_acked_ = true;
    cancel_rto();
  }
  // Always ack the peer's FIN (ack_of_seq 1 names the receiver's control
  // FIN; duplicates of this packet are idempotent at the receiver).
  net::Packet ack;
  ack.dst = dst_;
  ack.flow = flow_;
  ack.is_ack = true;
  ack.seq = 0;
  ack.ack_of_seq = 1;
  ack.ts = sim_->now();
  host_->send(std::move(ack));

  switch (conn_) {
    case ConnState::kEstablished:
      set_conn_state(ConnState::kCloseWait);
      maybe_send_fin();
      break;
    case ConnState::kFinWait1:
      if (fin_acked_) {
        enter_time_wait();
      } else {
        set_conn_state(ConnState::kClosing);
      }
      break;
    case ConnState::kFinWait2:
      enter_time_wait();
      break;
    default:
      break;  // duplicate FIN in TIME_WAIT etc.: the re-ack above suffices
  }
}

void TcpSender::handle_rst_received() {
  ++lstats_.rst_received;
  finish_closed(/*graceful=*/false);
}

void TcpSender::enter_time_wait() {
  cancel_rto();
  set_conn_state(ConnState::kTimeWait);
  obs::emit(sim_, obs::EventKind::kConnTimeWaitEnter, flow_,
            cfg_.lifecycle.time_wait.to_seconds());
  if (time_wait_timer_.valid()) sim_->cancel(time_wait_timer_);
  time_wait_timer_ = sim_->schedule(cfg_.lifecycle.time_wait, [this] {
    obs::emit(sim_, obs::EventKind::kConnTimeWaitExpire, flow_);
    finish_closed(true);
  });
}

void TcpSender::finish_closed(bool graceful) {
  cancel_rto();
  if (time_wait_timer_.valid()) {
    sim_->cancel(time_wait_timer_);
    time_wait_timer_ = sim::EventId{};
  }
  established_ = false;
  close_requested_ = true;  // the flow is spent; write() now throws
  lstats_.graceful_close = graceful;
  obs::emit(sim_, obs::EventKind::kConnClosed, flow_, graceful ? 1.0 : 0.0,
            static_cast<double>(conn_));
  set_conn_state(ConnState::kClosed);
  for (const auto& cb : on_closed_) cb(graceful, sim_->now());
}

void TcpSender::give_up() {
  send_rst();
  finish_closed(/*graceful=*/false);
}

std::uint64_t TcpSender::window_segments() const {
  return static_cast<std::uint64_t>(std::max(cwnd(), 1.0));
}

void TcpSender::try_send() {
  if (!established_) return;  // data waits for the SYN-ACK
  while (snd_next() < total_segments_ && in_flight() < window_segments()) {
    const bool retransmission = snd_next() < max_seq_sent_;
    if (!retransmission && !cc_allow_new_segment()) break;
    send_segment(snd_next(), retransmission);
    ++snd_next_;
    max_seq_sent_ = std::max(max_seq_sent_, snd_next());
  }
}

void TcpSender::force_send_segment(SeqNum seq) {
  assert(seq == snd_next() && seq < total_segments_);
  const bool retransmission = seq < max_seq_sent_;
  send_segment(seq, retransmission);
  ++snd_next_;
  max_seq_sent_ = std::max(max_seq_sent_, snd_next());
}

void TcpSender::send_segment(SeqNum seq, bool retransmission) {
  net::Packet p;
  p.dst = dst_;
  p.flow = flow_;
  p.is_ack = false;
  p.seq = seq;
  p.payload_bytes = segment_payload_bytes(seq);
  p.ts = sim_->now();
  if (cfg_.ecn_capable) p.ecn = net::EcnCodepoint::kEct;
  // The CC hooks see the internal (data-space) sequence number; the wire
  // offset for the SYN slot is applied just before transmission.
  cc_before_send(p);

  ++stats_.data_packets_sent;
  stats_.data_bytes_sent += p.payload_bytes;
  if (retransmission) ++stats_.retransmitted_packets;
  if (auto* t = obs::telemetry_of(sim_)) t->core().segments_sent->inc();

  last_send_time_ = sim_->now();
  const net::Packet snapshot = p;
  p.seq = wire_seq(seq);
  host_->send(std::move(p));

  if (!rto_timer_.valid()) arm_rto();
  cc_after_send(snapshot, retransmission);
}

void TcpSender::send_redundant_copy(SeqNum seq) {
  net::Packet p;
  p.dst = dst_;
  p.flow = flow_;
  p.seq = wire_seq(seq);
  p.payload_bytes = segment_payload_bytes(seq);
  p.ts = sim_->now();
  if (cfg_.ecn_capable) p.ecn = net::EcnCodepoint::kEct;
  ++stats_.data_packets_sent;
  stats_.data_bytes_sent += p.payload_bytes;
  ++stats_.retransmitted_packets;
  host_->send(std::move(p));
}

void TcpSender::arm_rto() {
  cancel_rto();
  auto rto = rtt().rto(cfg_.min_rto, cfg_.max_rto);
  for (int i = 0; i < rto_backoff_; ++i) {
    rto = std::min(rto * 2, cfg_.max_rto);
  }
  obs::emit(sim_, obs::EventKind::kRtoArmed, flow_, rto.to_seconds(),
            static_cast<double>(rto_backoff_));
  rto_timer_ = sim_->schedule(rto, [this] { on_rto(); });
}

void TcpSender::cancel_rto() {
  if (rto_timer_.valid()) {
    sim_->cancel(rto_timer_);
    rto_timer_ = sim::EventId{};
  }
}

void TcpSender::on_rto() {
  rto_timer_ = sim::EventId{};
  if (!established_) {  // lost SYN or SYN-ACK: retry the handshake
    if (conn_ != ConnState::kSynSent) return;  // aborted
    if (ctrl_retries_ >= cfg_.lifecycle.max_syn_retries) {
      give_up();
      return;
    }
    ++stats_.timeouts;
    ++ctrl_retries_;
    ++rto_backoff_;
    ++lstats_.syn_retx;
    obs::emit(sim_, obs::EventKind::kRtoFired, flow_,
              static_cast<double>(rto_backoff_ - 1), 0.0);
    obs::emit(sim_, obs::EventKind::kRtoBackoff, flow_,
              static_cast<double>(rto_backoff_), 0.0);
    obs::emit(sim_, obs::EventKind::kSynRetx, flow_,
              static_cast<double>(rto_backoff_),
              static_cast<double>(ctrl_retries_));
    net::Packet p;
    p.dst = dst_;
    p.flow = flow_;
    p.syn = true;
    p.seq = 0;
    p.ts = sim_->now();
    host_->send(std::move(p));
    arm_rto();
    return;
  }
  if (fin_sent_ && !fin_acked_) {  // lost FIN (or its ACK)
    if (ctrl_retries_ >= cfg_.lifecycle.max_fin_retries) {
      give_up();
      return;
    }
    ++stats_.timeouts;
    ++ctrl_retries_;
    ++rto_backoff_;
    ++lstats_.fin_retx;
    obs::emit(sim_, obs::EventKind::kFinRetx, flow_,
              static_cast<double>(rto_backoff_),
              static_cast<double>(ctrl_retries_));
    net::Packet p;
    p.dst = dst_;
    p.flow = flow_;
    p.fin = true;
    p.seq = fin_wire_seq_;
    p.ts = sim_->now();
    host_->send(std::move(p));
    arm_rto();
    return;
  }
  if (snd_una() == total_segments_) return;  // nothing outstanding

  ++stats_.timeouts;
  obs::emit(sim_, obs::EventKind::kRtoFired, flow_,
            static_cast<double>(rto_backoff_), static_cast<double>(snd_una()));

  in_recovery_ = false;
  dupacks_ = 0;
  cc_on_timeout();

  // Go-back-N: resume from the first unacked segment; the (now tiny)
  // window throttles the refill, and cumulative ACKs from segments the
  // receiver already holds fast-forward snd_una.
  snd_next_ = snd_una_;
  ++rto_backoff_;
  obs::emit(sim_, obs::EventKind::kRtoBackoff, flow_,
            static_cast<double>(rto_backoff_), static_cast<double>(snd_una()));
  arm_rto();
  try_send();
}

void TcpSender::on_packet(const net::Packet& p) {
  if (lifecycle() && p.rst) {  // abortive teardown from the peer
    if (conn_ != ConnState::kClosed) handle_rst_received();
    return;
  }
  if (!p.is_ack) return;  // sender side only consumes ACKs

  if (p.syn) {  // SYN-ACK completes the handshake
    handle_syn_ack(p);
    return;
  }

  if (lifecycle() && p.fin) {  // the receiver's FIN (half-close back)
    handle_peer_fin(p);
    return;
  }

  if (!established_) {
    // A plain ACK in SYN_SENT acknowledges nothing we sent: answer RST and
    // keep the handshake going. This is the reset half of the
    // SYN-into-established / challenge-ACK interaction — if that ACK was a
    // challenge from a previous incarnation still ESTABLISHED at the peer,
    // our RST tears the stale incarnation down.
    if (conn_ == ConnState::kSynSent) send_rst();
    return;
  }

  AckEvent ev;
  ev.ack_seq = internal_ack(p.seq);
  ev.ack_of_seq = internal_ack(p.ack_of_seq);
  ev.rtt = sim_->now() - p.ts;
  ev.ece = p.ece;
  ev.is_dup = ev.ack_seq == snd_una() && snd_next() > snd_una();
  ev.newly_acked = ev.ack_seq > snd_una() ? ev.ack_seq - snd_una() : 0;

  if (fin_sent_ && !fin_acked_ && p.seq >= fin_wire_seq_ + 1) {
    // Cumulative ack covering our FIN's wire slot.
    fin_acked_ = true;
    ctrl_retries_ = 0;
    rto_backoff_ = 0;
    cancel_rto();
    switch (conn_) {
      case ConnState::kFinWait1:
        set_conn_state(ConnState::kFinWait2);
        break;
      case ConnState::kClosing:
        enter_time_wait();
        break;
      case ConnState::kLastAck:
        finish_closed(/*graceful=*/true);
        return;  // `this` may be torn down by a closed callback's owner
      default:
        break;
    }
  }

  ++stats_.acked_segments;
  if (ev.ece) ++stats_.ecn_marked_acks;
  if (auto* t = obs::telemetry_of(sim_)) t->core().acks_processed->inc();

  cc_on_every_ack(ev);

  if (ev.newly_acked > 0) {
    handle_new_ack(ev);
  } else if (ev.is_dup) {
    handle_dupack(ev);
  }
  // else: stale ACK below snd_una with nothing in flight — ignore.

  if (cwnd_trace_ != nullptr) cwnd_trace_->record(sim_->now(), cwnd());
  try_send();
}

void TcpSender::handle_new_ack(const AckEvent& ev) {
  rtt_.add_sample(ev.rtt);
  rto_backoff_ = 0;

  // Advance byte accounting to the cumulative ACK in O(log outstanding
  // messages) — no per-segment walk.
  const std::uint64_t acked_upto = bytes_upto(ev.ack_seq);
  stats_.goodput_bytes += acked_upto - acked_bytes_;
  acked_bytes_ = acked_upto;
  snd_una_ = ev.ack_seq;
  // ACKs can arrive for data beyond a post-RTO go-back-N pointer.
  snd_next_ = std::max(snd_next_, snd_una_);
  dupacks_ = 0;

  if (in_recovery_) {
    if (snd_una() >= recover_) {
      // Full ACK: recovery complete, deflate to ssthresh.
      in_recovery_ = false;
      set_cwnd(ssthresh());
    } else {
      // NewReno partial ACK: retransmit the next hole, deflate by the
      // amount acked (plus one for the retransmission).
      set_cwnd(std::max(cwnd() - static_cast<double>(ev.newly_acked) + 1.0,
                        cfg_.min_cwnd));
      if (snd_next() > snd_una()) {
        // The hole is at snd_una: resend it immediately.
        send_segment(snd_una(), true);
      }
    }
  } else {
    cc_on_new_ack(ev);
  }

  check_message_completion();

  if (snd_una() == total_segments_ && snd_next() == total_segments_) {
    cancel_rto();  // everything delivered
    maybe_send_fin();  // a pending close() follows the last data ack
  } else {
    arm_rto();  // restart for the oldest outstanding data
  }
}

void TcpSender::handle_dupack(AckEvent&) {
  ++dupacks_;
  if (in_recovery_) {
    // Window inflation keeps the pipe full while the hole is repaired.
    set_cwnd(cwnd() + 1.0);
    return;
  }
  if (dupacks_ == cfg_.dupack_threshold) {
    ++stats_.fast_retransmits;
    cc_on_fast_retransmit();
    obs::emit(sim_, obs::EventKind::kFastRetransmit, flow_,
              static_cast<double>(snd_una()), cwnd());
    in_recovery_ = true;
    recover_ = snd_next();
    send_segment(snd_una(), true);
    arm_rto();
  }
}

void TcpSender::check_message_completion() {
  // Pop before firing callbacks: a callback may write() the next message,
  // and the record of the completed one must already be gone.
  while (!messages_.empty() && acked_bytes_ >= messages_.front().end_byte) {
    const auto msg_id = messages_.front().msg_id;
    messages_.pop_front();
    stats_.complete_message(msg_id, sim_->now());
    for (const auto& cb : on_message_) cb(msg_id, sim_->now());
  }
}

// ---- default (Reno) congestion control ----

void TcpSender::cc_on_every_ack(const AckEvent&) {}

void TcpSender::reno_increase(std::uint64_t newly_acked) {
  double w = cwnd();
  const double thresh = ssthresh();
  for (std::uint64_t i = 0; i < newly_acked; ++i) {
    if (w < thresh) {
      w += 1.0;  // slow start
    } else {
      w += 1.0 / w;  // congestion avoidance
    }
  }
  set_cwnd(w);
}

void TcpSender::cc_on_new_ack(const AckEvent& ev) { reno_increase(ev.newly_acked); }

void TcpSender::cc_on_fast_retransmit() {
  set_ssthresh(std::max(static_cast<double>(in_flight()) / 2.0, 2.0));
  set_cwnd(ssthresh() + static_cast<double>(cfg_.dupack_threshold));
}

void TcpSender::cc_on_timeout() {
  set_ssthresh(std::max(static_cast<double>(in_flight()) / 2.0, 2.0));
  set_cwnd(cfg_.cwnd_after_rto);
}

void TcpSender::cc_before_send(net::Packet&) {}

bool TcpSender::cc_allow_new_segment() { return true; }

void TcpSender::cc_after_send(const net::Packet&, bool) {}

double TcpSender::clamp_cwnd(double w) const { return std::max(w, cfg_.min_cwnd); }

void TcpSender::set_cwnd(double w) {
  cwnd_ = clamp_cwnd(w);
  if (cwnd_trace_ != nullptr) cwnd_trace_->record(sim_->now(), cwnd_);
}

}  // namespace trim::tcp
