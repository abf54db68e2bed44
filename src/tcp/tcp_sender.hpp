// TCP sender base class: reliability, window accounting, timers, and
// application message tracking. Congestion control is factored into
// `cc_*` hooks that the protocol variants (Reno, CUBIC, DCTCP, L2DCT,
// TCP-TRIM) override.
//
// Loss recovery follows ns-2's Reno/NewReno agents, which is what the
// paper simulates:
//   - fast retransmit on the third duplicate ACK, NewReno partial-ACK
//     retransmissions during recovery, window inflation on further dupacks;
//   - RTO with exponential backoff; after an RTO the sender performs
//     go-back-N (snd_next is pulled back to snd_una and the window governs
//     how fast the hole is refilled).
//
// The application writes byte-counted messages (HTTP responses / packet
// trains); the sender segments them at MSS granularity and reports message
// completion when the last byte is cumulatively acked.
#pragma once

#include <cstdint>
#include <vector>

#include "mem/ring_buffer.hpp"
#include "net/host.hpp"
#include "net/packet.hpp"
#include "sim/inline_callback.hpp"
#include "sim/simulator.hpp"
#include "stats/flow_stats.hpp"
#include "stats/time_series.hpp"
#include "tcp/rtt_estimator.hpp"
#include "tcp/tcp_common.hpp"

namespace trim::mem {
class SenderCensus;  // mem/sim_memory.hpp
}  // namespace trim::mem

namespace trim::tcp {

// Everything a congestion-control hook needs to know about one ACK.
struct AckEvent {
  SeqNum ack_seq = 0;        // cumulative (next expected segment)
  SeqNum ack_of_seq = 0;     // segment that triggered this ACK
  sim::SimTime rtt;          // per-ACK sample from the timestamp echo
  bool ece = false;          // CE echo
  bool is_dup = false;
  std::uint64_t newly_acked = 0;  // segments (0 for dupacks)
};

class TcpSender : public net::Agent {
 public:
  TcpSender(net::Host* host, net::NodeId dst, net::FlowId flow, TcpConfig cfg);
  ~TcpSender() override;

  // ---- application interface ----
  // Queue `bytes` for transmission as one message; returns the message id
  // used in the completion callback. Transmission starts immediately
  // (window permitting).
  std::uint64_t write(std::uint64_t bytes);
  // InlineFunction (not std::function): apps subscribe with small lambdas
  // and completion fires on the ACK hot path, so the callback must not
  // cost a heap allocation per registration or an SBO miss per call.
  using MessageCallback =
      sim::InlineFunction<void(std::uint64_t msg_id, sim::SimTime now)>;
  // Multiple listeners are supported (an app and a pacing source may both
  // subscribe); callbacks fire in registration order.
  void add_message_complete_callback(MessageCallback cb) {
    on_message_.push_back(std::move(cb));
  }

  bool idle() const { return snd_una() == total_segments_; }
  std::uint64_t bytes_written() const { return bytes_written_; }
  std::uint64_t bytes_acked() const { return acked_bytes_; }

  // ---- connection lifecycle (only with cfg.simulate_handshake) ----
  // Active open: send the SYN now instead of lazily on the first write().
  void connect();
  // Graceful close: the FIN goes out once every written byte is acked
  // (sends immediately when already idle). write() after close() throws.
  // Throws trim::ConfigError when lifecycle simulation is off.
  void close();
  // Abortive close: RST the peer and drop to CLOSED immediately.
  void abort();
  // kEstablished when lifecycle simulation is off (the legacy
  // pre-established world), the live state machine otherwise.
  ConnState conn_state() const {
    return cfg_.simulate_handshake ? conn_ : ConnState::kEstablished;
  }
  const LifecycleStats& lifecycle_stats() const { return lstats_; }
  bool time_wait_timer_armed() const { return time_wait_timer_.valid(); }
  // Fires exactly once, when the state machine reaches CLOSED (gracefully
  // via the FIN exchange or aborted via RST/give-up).
  using ClosedCallback =
      sim::InlineFunction<void(bool graceful, sim::SimTime now)>;
  void add_closed_callback(ClosedCallback cb) {
    on_closed_.push_back(std::move(cb));
  }

  // ---- introspection ----
  double cwnd() const { return cwnd_; }
  double ssthresh() const { return ssthresh_; }
  SeqNum snd_una() const { return snd_una_; }
  SeqNum snd_next() const { return snd_next_; }
  std::uint64_t in_flight() const { return snd_next_ - snd_una_; }
  const RttEstimator& rtt() const { return rtt_; }
  net::FlowId flow_id() const { return flow_; }
  const TcpConfig& config() const { return cfg_; }
  stats::FlowStats& stats() { return stats_; }
  const stats::FlowStats& stats() const { return stats_; }

  // ---- liveness introspection (invariant checker / tests) ----
  // Current RTO backoff exponent: 0 after any new ACK, +1 per consecutive
  // timeout (the armed RTO is base_rto * 2^backoff, capped at max_rto).
  int rto_backoff() const { return rto_backoff_; }
  bool retransmit_timer_armed() const { return rto_timer_.valid(); }
  // True while congestion control has deliberately paused transmission
  // (TRIM probe suspension). Base TCP never suspends.
  virtual bool cc_suspended() const { return false; }
  // True when a CC-owned timer is pending that will resume transmission
  // (TRIM's probe timer). Pairs with cc_suspended() for liveness checks.
  virtual bool cc_wakeup_pending() const { return false; }

  // Record (time, cwnd) on every window change — Figs. 4(b), 6(b).
  void set_cwnd_trace(stats::TimeSeries* trace) { cwnd_trace_ = trace; }

  // Resident bytes of the per-flow segment/message accounting structures
  // (excludes FlowStats message records). Tracked by bench_flow_datapath.
  std::size_t datapath_state_bytes() const {
    return messages_.size() * sizeof(MessageRecord);
  }

  // ---- net::Agent ----
  void on_packet(const net::Packet& p) override;

  virtual Protocol protocol() const = 0;

 protected:
  // ---- congestion-control hooks ----
  // Called on every ACK (new or duplicate) before any other processing.
  virtual void cc_on_every_ack(const AckEvent& ev);
  // Window growth on a new cumulative ACK (not during fast recovery).
  virtual void cc_on_new_ack(const AckEvent& ev);
  // Window reduction entering fast recovery (3rd dupack). Must set
  // ssthresh_ and cwnd_.
  virtual void cc_on_fast_retransmit();
  // Window reduction after an RTO fires. Must set ssthresh_ and cwnd_.
  virtual void cc_on_timeout();
  // Stamp outgoing data packets (ECT marking etc.).
  virtual void cc_before_send(net::Packet& p);
  // Gate for transmitting a *new* (never-sent) segment; TRIM uses this for
  // inter-train probing and suspension. Retransmissions are never gated.
  virtual bool cc_allow_new_segment();
  // Called after every transmitted data packet (GIP duplicates the tail
  // segment of each train here).
  virtual void cc_after_send(const net::Packet& p, bool retransmission);

  // Shared helpers for subclasses.
  void reno_increase(std::uint64_t newly_acked);
  double clamp_cwnd(double w) const;
  void set_cwnd(double w);
  void set_ssthresh(double w) { ssthresh_ = w; }
  sim::Simulator* simulator() const { return sim_; }
  sim::SimTime last_send_time() const { return last_send_time_; }
  bool has_sent() const { return max_seq_sent_ > 0; }
  SeqNum max_seq_sent() const { return max_seq_sent_; }
  bool in_recovery() const { return in_recovery_; }
  SeqNum total_segments() const { return total_segments_; }

  // Transmit machinery (subclasses may need to kick it, e.g. when TRIM
  // resumes from probe suspension).
  void try_send();
  // Send `seq` bypassing the window gate (used for probe packets).
  void force_send_segment(SeqNum seq);
  // Re-transmit a copy of an already-sent segment immediately (GIP's
  // redundant tail packet); does not advance any pointer.
  void send_redundant_copy(SeqNum seq);

 public:
  // One outstanding application message: segments [first_seg, last_seg],
  // bytes [start_byte, end_byte). Every segment carries a full MSS except
  // the tail, so segment->byte mapping is pure arithmetic and no
  // per-segment size table is needed. Records are popped as soon as the
  // message's last byte is cumulatively acked, keeping sender accounting
  // O(outstanding messages) regardless of how long the connection lives.
  struct MessageRecord {
    SeqNum first_seg;
    SeqNum last_seg;
    std::uint64_t start_byte;
    std::uint64_t end_byte;
    std::uint64_t msg_id;       // FlowStats message id for completion
    std::uint32_t tail_bytes;   // payload of last_seg (== mss iff aligned)
  };
  // Incomplete messages in write order (front = oldest unacked). Ring
  // buffer, not deque: a persistent connection pushes/pops one record per
  // message forever, and the ring stops allocating once it reaches the
  // peak outstanding count.
  const mem::RingBuffer<MessageRecord>& outstanding_messages() const {
    return messages_;
  }
  // True when `seq` is the first/last segment of an outstanding message.
  // (Completed messages are forgotten; callers only query unacked space.)
  bool is_message_start(SeqNum seq) const;
  bool is_message_end(SeqNum seq) const;

  // Handshake state (only meaningful with cfg.simulate_handshake): true
  // from ESTABLISHED until the connection closes or aborts.
  bool connection_established() const { return established_; }

 private:
  // True when the full lifecycle (tcp/lifecycle.hpp) is simulated. With it
  // off, every lifecycle branch below is dead and the sender behaves
  // byte-identically to the pre-established world.
  bool lifecycle() const { return cfg_.simulate_handshake; }
  // Wire sequence mapping: the SYN occupies wire slot 0, so data segment i
  // travels as wire seq i+1 and the FIN as total_segments_ + 1. Internal
  // accounting (snd_una/snd_next, messages, CC hooks) stays in data space.
  SeqNum wire_seq(SeqNum internal) const {
    return lifecycle() ? internal + 1 : internal;
  }
  SeqNum internal_ack(SeqNum wire) const;
  void set_conn_state(ConnState next);
  void send_handshake_ack();
  void maybe_send_fin();
  void send_fin();
  void send_rst();
  void handle_syn_ack(const net::Packet& p);
  void handle_peer_fin(const net::Packet& p);
  void handle_rst_received();
  void enter_time_wait();
  // Terminal transition to CLOSED: cancels every timer, drops
  // established_, emits kConnClosed, and fires the closed callbacks.
  void finish_closed(bool graceful);
  void give_up();  // control-retransmission budget exhausted: RST + abort
  // Outstanding message containing `seq`, or nullptr (acked or unwritten).
  const MessageRecord* find_message(SeqNum seq) const;
  // Payload bytes of segment `seq` (full MSS except message tails).
  std::uint32_t segment_payload_bytes(SeqNum seq) const;
  // Stream bytes carried by segments [0, seq) — O(log outstanding).
  std::uint64_t bytes_upto(SeqNum seq) const;

  void send_segment(SeqNum seq, bool retransmission);
  void send_syn();
  void handle_new_ack(const AckEvent& ev);
  void handle_dupack(AckEvent& ev);
  void check_message_completion();
  void arm_rto();
  void cancel_rto();
  void on_rto();
  std::uint64_t window_segments() const;

  net::Host* host_;
  net::NodeId dst_;
  net::FlowId flow_;
  TcpConfig cfg_;
  sim::Simulator* sim_;
  // The shard's live-sender census, or nullptr on a bare simulator.
  mem::SenderCensus* census_ = nullptr;

  // The per-ACK state (TCP-TRIM's Algorithms 1-2 read cwnd and the RTT
  // estimator's smoothed and minimum RTT on every ACK). Every member of
  // this class is set by a member or constructor initializer: arena
  // blocks are handed out uninitialized and recycled, never zeroed.
  double cwnd_;
  double ssthresh_;
  SeqNum snd_una_ = 0;
  SeqNum snd_next_ = 0;
  RttEstimator rtt_;

  SeqNum total_segments_ = 0;
  std::uint64_t bytes_written_ = 0;
  // Compact segment accounting: boundaries of the incomplete messages only.
  mem::RingBuffer<MessageRecord> messages_;

  // False until the SYN-ACK with the lifecycle on, and again from CLOSED
  // on; always true with it off (only lifecycle paths clear it). So
  // `!established_` implies lifecycle() everywhere below.
  bool established_;
  bool syn_sent_ = false;

  // Lifecycle state (untouched unless cfg.simulate_handshake).
  ConnState conn_ = ConnState::kClosed;
  bool close_requested_ = false;
  bool fin_sent_ = false;
  bool fin_acked_ = false;
  SeqNum fin_wire_seq_ = 0;
  int ctrl_retries_ = 0;  // consecutive SYN or FIN retransmissions
  sim::SimTime syn_first_sent_;
  sim::EventId time_wait_timer_;
  LifecycleStats lstats_;
  std::vector<ClosedCallback> on_closed_;

  SeqNum max_seq_sent_ = 0;  // high-water mark of snd_next
  std::uint64_t acked_bytes_ = 0;

  int dupacks_ = 0;
  bool in_recovery_ = false;
  SeqNum recover_ = 0;

  sim::EventId rto_timer_;
  int rto_backoff_ = 0;
  sim::SimTime last_send_time_;

  std::vector<MessageCallback> on_message_;

  stats::FlowStats stats_;
  stats::TimeSeries* cwnd_trace_ = nullptr;
};

}  // namespace trim::tcp
