// TCP receiver: cumulative ACKs with out-of-order buffering, plus the
// passive side of the connection lifecycle.
//
// Every data segment is ACKed immediately (no delayed ACK; data center
// stacks routinely disable it and the paper's analysis assumes per-packet
// clocking). Each ACK echoes:
//   - the cumulative ack (next expected segment),
//   - the sequence number of the segment that triggered it (`ack_of_seq`),
//     which lets TCP-TRIM recognize probe ACKs,
//   - the sender timestamp (`ts`), giving one RTT sample per ACK,
//   - the CE mark of the triggering segment (`ece`), an exact per-packet
//     version of DCTCP's ECN echo.
//
// Lifecycle (tcp/lifecycle.hpp): the first SYN moves the receiver from
// LISTEN through SYN_RCVD (consulting the host's ListenQueue when one is
// attached) to ESTABLISHED; the peer's FIN is consumed in sequence and
// answered with the receiver's own FIN (auto_close_on_peer_fin); RST
// tears the connection down from any state. SYN-ACK and FIN are
// retransmitted on a dedicated control timer with exponential backoff
// capped at retx_rto_max. A SYN arriving into an established connection
// gets a challenge ACK, never a reset (the Tokyo Stock Exchange incident
// interaction — see docs/LIFECYCLE.md). When lifecycle simulation never
// activates (no SYN ever arrives), none of this exists and the receiver is
// the legacy pre-established endpoint, byte for byte.
#pragma once

#include <cstdint>
#include <vector>

#include "net/host.hpp"
#include "net/packet.hpp"
#include "sim/inline_callback.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_common.hpp"

namespace trim::tcp {

class ListenQueue;

struct ReceiverConfig {
  // Start in LISTEN with the state machine live (instead of lazily
  // activating it on the first SYN). Scenarios that open connections
  // dynamically set this so a never-contacted endpoint reports kListen.
  bool expect_handshake = false;
  // Lifecycle knobs, consulted once the state machine is active.
  LifecycleConfig lifecycle;
};

class TcpReceiver : public net::Agent {
 public:
  // Registers itself on `host` for `flow`; ACKs go back to `peer`.
  TcpReceiver(net::Host* host, net::FlowId flow, net::NodeId peer,
              ReceiverConfig cfg = {});
  ~TcpReceiver() override;

  void on_packet(const net::Packet& p) override;

  net::FlowId flow_id() const { return flow_; }

  // Next expected sequence number. Data-segment space in the legacy
  // pre-established world; wire space (SYN at slot 0, data segment i at
  // i+1, FIN at the end) once the lifecycle is active.
  SeqNum rcv_next() const { return rcv_next_; }
  std::uint64_t delivered_bytes() const { return delivered_bytes_; }
  std::uint64_t received_data_packets() const { return received_data_packets_; }
  std::uint64_t duplicate_data_packets() const { return duplicate_data_packets_; }
  std::uint64_t ce_marked_packets() const { return ce_marked_packets_; }
  std::uint64_t acks_sent() const { return acks_sent_; }

  // Called with the byte count each time new in-order data is delivered.
  void set_deliver_callback(sim::InlineFunction<void(std::uint64_t)> cb) {
    on_deliver_ = std::move(cb);
  }

  // ---- connection lifecycle (passive side) ----
  // Half-close from this side: FIN now if ESTABLISHED (simultaneous-close
  // experiments) or after the peer's FIN if CLOSE_WAIT. No-op elsewhere.
  void close();
  // kEstablished while the lifecycle has never activated (legacy world).
  ConnState conn_state() const {
    return lifecycle_active_ ? conn_ : ConnState::kEstablished;
  }
  bool lifecycle_active() const { return lifecycle_active_; }
  const LifecycleStats& lifecycle_stats() const { return lstats_; }
  // Data packets that arrived while no connection was open — always zero
  // unless an invariant is broken (the sender gates data on ESTABLISHED).
  std::uint64_t data_before_established() const { return data_before_established_; }
  bool retx_timer_armed() const { return retx_timer_.valid(); }
  bool time_wait_timer_armed() const { return time_wait_timer_.valid(); }

  // Shared per-host SYN backlog; consulted on every fresh SYN while in
  // LISTEN. The queue must outlive this receiver.
  void set_listen_queue(ListenQueue* queue) { listen_queue_ = queue; }

  using ClosedCallback =
      sim::InlineFunction<void(bool graceful, sim::SimTime now)>;
  void add_closed_callback(ClosedCallback cb) {
    on_closed_.push_back(std::move(cb));
  }

 private:
  void send_ack(const net::Packet& data);

  // Lifecycle machinery.
  void handle_syn(const net::Packet& p);
  void handle_ctrl_ack(const net::Packet& p);
  void handle_data_fin(const net::Packet& p);
  void handle_rst_received();
  void become_established();
  // `echo_ts` = the triggering SYN's timestamp; zero on timer-driven
  // retransmissions (Karn's rule: the sender skips the RTT sample).
  void send_synack(sim::SimTime echo_ts);
  void send_fin_packet();
  void send_rst();
  void send_challenge_ack(const net::Packet& p);
  void arm_ctrl_retx();
  void cancel_ctrl_retx();
  void on_ctrl_retx();
  void enter_time_wait();
  void finish_closed(bool graceful);
  void set_conn_state(ConnState next);

  net::Host* host_;
  net::FlowId flow_;
  net::NodeId peer_;
  ReceiverConfig cfg_;
  sim::Simulator* sim_;

  // One contiguous run of buffered out-of-order segments: seq space
  // [begin, end) carrying `bytes` payload bytes in total.
  struct Interval {
    SeqNum begin;
    SeqNum end;
    std::uint64_t bytes;
  };
  // Returns false when `seq` was already buffered (duplicate).
  bool buffer_out_of_order(SeqNum seq, std::uint32_t payload);

  SeqNum rcv_next_ = 0;
  // Sorted, disjoint, non-adjacent intervals (merge-on-insert). Loss leaves
  // a handful of holes, so this stays tiny where a per-segment map would
  // hold one node per buffered packet.
  std::vector<Interval> ooo_;

  std::uint64_t delivered_bytes_ = 0;
  std::uint64_t received_data_packets_ = 0;
  std::uint64_t duplicate_data_packets_ = 0;
  std::uint64_t ce_marked_packets_ = 0;
  std::uint64_t acks_sent_ = 0;

  sim::InlineFunction<void(std::uint64_t)> on_deliver_;

  // Lifecycle state (inert until expect_handshake or the first SYN).
  bool lifecycle_active_ = false;
  ConnState conn_ = ConnState::kListen;
  ListenQueue* listen_queue_ = nullptr;
  bool fin_sent_ = false;
  int retx_count_ = 0;
  sim::EventId retx_timer_;
  sim::EventId time_wait_timer_;
  sim::SimTime syn_seen_at_;
  std::uint64_t data_before_established_ = 0;
  LifecycleStats lstats_;
  std::vector<ClosedCallback> on_closed_;
};

}  // namespace trim::tcp
