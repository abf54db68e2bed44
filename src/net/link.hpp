// Unidirectional point-to-point link: egress queue -> serialization at the
// configured bandwidth -> fixed propagation delay -> delivery to the peer
// node. Topology helpers create one Link per direction.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "net/packet.hpp"
#include "net/queue.hpp"
#include "sim/simulator.hpp"
#include "stats/rate_meter.hpp"

namespace trim::fault {
class FaultInjector;
}

namespace trim::sim {
class ShardedEngine;  // sim/sharded_engine.hpp
}

namespace trim::net {

class Node;

class Link {
 public:
  Link(sim::Simulator* sim, std::string name, std::uint64_t bits_per_sec,
       sim::SimTime prop_delay, std::unique_ptr<Queue> queue);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  void set_peer(Node* peer) { peer_ = peer; }
  Node* peer() const { return peer_; }

  // Hand a packet to the link. It is queued (possibly dropped) and
  // serialized in FIFO order.
  void send(Packet p);

  Queue& queue() { return *queue_; }
  const Queue& queue() const { return *queue_; }

  std::uint64_t bits_per_sec() const { return bps_; }
  sim::SimTime prop_delay() const { return delay_; }
  const std::string& name() const { return name_; }

  std::uint64_t bytes_delivered() const { return bytes_delivered_; }
  std::uint64_t packets_delivered() const { return packets_delivered_; }
  // Packets whose arrival event at the peer has fired; delivered - arrived
  // is what is still propagating (the invariant checker reads both).
  std::uint64_t packets_arrived() const { return packets_arrived_; }

  // Optional throughput instrumentation; counts bytes at delivery time.
  void set_delivery_meter(stats::RateMeter* meter) { meter_ = meter; }

  // Optional fault injection (see fault/fault_injector.hpp). Installed by
  // FaultInjector::attach; with no injector (or an all-disabled one) the
  // packet path is untouched.
  void set_fault_injector(fault::FaultInjector* f) { fault_ = f; }
  const fault::FaultInjector* fault_injector() const { return fault_; }

  // ---- sharded-engine wiring (Network::apply_partition) ----
  // Re-home the link (and its queue's telemetry clock) onto the source
  // node's shard simulator. Egress, serialization, and every queue event
  // stay on that shard.
  void rebind_simulator(sim::Simulator* sim);
  // Mark the link as a shard cut: the delivery leg posts the arrival into
  // the engine's (src, dst) mailbox instead of the local event queue. The
  // engine flushes mailboxes at each window barrier; prop_delay() >= the
  // engine lookahead keeps that hand-off causal.
  void set_cross_shard(sim::ShardedEngine* engine, int src_shard, int dst_shard);
  bool cross_shard() const { return engine_ != nullptr; }

 private:
  void begin_transmission();
  void drain();

  sim::Simulator* sim_;
  std::string name_;
  std::uint64_t bps_;
  sim::SimTime delay_;
  std::unique_ptr<Queue> queue_;
  Node* peer_ = nullptr;
  bool busy_ = false;
  // The packet currently being serialized. Keeping it in the link rather
  // than in the event closure makes the busy-period continuation capture
  // just `this`: one wire slot, refilled in place per drained packet.
  Packet in_flight_;

  // Cross-shard delivery (null for the ordinary same-shard path). The
  // arrival callback runs on the peer's shard; it touches only
  // packets_arrived_ (written by that shard alone) and the peer itself,
  // so the link needs no locks.
  sim::ShardedEngine* engine_ = nullptr;
  int src_shard_ = 0;
  int dst_shard_ = 0;

  std::uint64_t bytes_delivered_ = 0;
  std::uint64_t packets_delivered_ = 0;
  std::uint64_t packets_arrived_ = 0;
  stats::RateMeter* meter_ = nullptr;
  fault::FaultInjector* fault_ = nullptr;
};

}  // namespace trim::net
