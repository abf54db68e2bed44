// Egress-port queues.
//
// DropTailQueue models the COTS switch buffers the paper targets (Sec. II:
// "droptail queue management of switch buffer"). Capacity can be expressed
// in packets (the paper's 100-packet buffers) and/or bytes (the 350 KB
// fat-tree buffers); either limit being exceeded drops the arriving packet.
//
// EcnDropTailQueue adds DCTCP-style *instantaneous* CE marking: an arriving
// ECT packet is marked when the occupancy at enqueue time exceeds the
// threshold K. This is the switch support DCTCP/L2DCT require (and which
// TCP-TRIM deliberately avoids needing).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>

#include "mem/ring_buffer.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "stats/time_series.hpp"

namespace trim::net {

struct QueueStats {
  std::uint64_t enqueued = 0;
  std::uint64_t dequeued = 0;
  std::uint64_t dropped = 0;
  std::uint64_t marked_ce = 0;
  std::uint64_t bytes_dropped = 0;
};

class Queue {
 public:
  virtual ~Queue() = default;

  // Take ownership of `p`. Returns false when the packet was dropped.
  virtual bool enqueue(Packet p) = 0;

  // The dequeue primitive: move the head packet into `out`, returning
  // false when the queue is empty. The link's busy-period drain loop calls
  // this once per packet, refilling its wire slot without an optional
  // wrapper in between.
  virtual bool dequeue_into(Packet& out);

  // Convenience wrapper over dequeue_into.
  std::optional<Packet> dequeue();

  std::size_t len_packets() const { return fifo_.size(); }
  std::uint64_t len_bytes() const { return bytes_; }
  bool empty() const { return fifo_.empty(); }

  const QueueStats& stats() const { return stats_; }

  // Optional instrumentation: occupancy trace (sampled on every enqueue /
  // dequeue / drop).
  void set_length_trace(stats::TimeSeries* trace, const sim::Simulator* clock) {
    trace_ = trace;
    clock_ = clock;
  }

  // Telemetry wiring (done by Link when it adopts the queue): `subject` is
  // the stable obs::subject_id of the owning link. With a clock attached
  // the queue emits depth high-watermark and drop-episode events and feeds
  // the queue.drops counter; without one (bare queues in unit tests) the
  // hooks are no-ops.
  void set_telemetry(const sim::Simulator* clock, std::uint32_t subject) {
    obs_clock_ = clock;
    obs_subject_ = subject;
  }

 protected:
  void push_back(Packet p);
  void drop(const Packet& p);
  void record_occupancy();

  // Power-of-two ring (was std::deque): a busy port's deque crossed a heap
  // block boundary every ~9 packets; the ring grows to peak occupancy once
  // and then never allocates. Bounded queues pre-size it in the ctor.
  mem::RingBuffer<Packet> fifo_;
  std::uint64_t bytes_ = 0;
  QueueStats stats_;
  stats::TimeSeries* trace_ = nullptr;
  const sim::Simulator* clock_ = nullptr;

  const sim::Simulator* obs_clock_ = nullptr;
  std::uint32_t obs_subject_ = 0;
  std::size_t hwm_packets_ = 0;       // high-watermark emitted so far
  bool in_drop_episode_ = false;      // a drop happened, no accept since
  std::uint64_t episode_drops_ = 0;
  sim::SimTime episode_start_;
};

struct QueueConfig {
  // 0 means "no limit" for that dimension.
  std::uint32_t capacity_packets = 0;
  std::uint64_t capacity_bytes = 0;
  // ECN marking threshold; 0 disables marking (plain droptail).
  std::uint32_t ecn_threshold_packets = 0;
  std::uint64_t ecn_threshold_bytes = 0;

  bool ecn_enabled() const {
    return ecn_threshold_packets != 0 || ecn_threshold_bytes != 0;
  }

  static QueueConfig droptail_packets(std::uint32_t pkts) {
    return QueueConfig{pkts, 0, 0, 0};
  }
  static QueueConfig droptail_bytes(std::uint64_t bytes) {
    return QueueConfig{0, bytes, 0, 0};
  }
  static QueueConfig ecn_packets(std::uint32_t pkts, std::uint32_t mark_at) {
    return QueueConfig{pkts, 0, mark_at, 0};
  }
  static QueueConfig ecn_bytes(std::uint64_t bytes, std::uint64_t mark_at) {
    return QueueConfig{0, bytes, 0, mark_at};
  }
};

class DropTailQueue : public Queue {
 public:
  explicit DropTailQueue(QueueConfig cfg);
  bool enqueue(Packet p) override;

 protected:
  bool has_room(const Packet& p) const;
  QueueConfig cfg_;
};

class EcnDropTailQueue : public DropTailQueue {
 public:
  explicit EcnDropTailQueue(QueueConfig cfg);
  bool enqueue(Packet p) override;
};

std::unique_ptr<Queue> make_queue(const QueueConfig& cfg);

}  // namespace trim::net
