// An end host: single-homed node that demultiplexes arriving packets to
// transport agents by flow id. TCP senders and receivers register here.
#pragma once

#include <cstdint>
#include <vector>

#include "net/node.hpp"

namespace trim::net {

// Anything that terminates a flow on a host (TCP sender / receiver side).
class Agent {
 public:
  virtual ~Agent() = default;
  virtual void on_packet(const Packet& p) = 0;
};

class Host : public Node {
 public:
  using Node::Node;

  void register_agent(FlowId flow, Agent* agent);
  void unregister_agent(FlowId flow);
  // Slots in the dispatch table: about the live span of flow ids, not one
  // per flow the host ever had (see agents_).
  std::size_t agent_slots() const { return agents_.size(); }
  // Calls f(Agent&) for every registered agent, in flow-id order (the
  // invariant checker finds the live TCP endpoints this way).
  template <typename F>
  void for_each_agent(F&& f) const {
    for (Agent* a : agents_) {
      if (a != nullptr) f(*a);
    }
  }

  // Fallback for packets whose flow has no registered agent — the
  // lifecycle scenarios attach a tcp::RstResponder here so segments for
  // torn-down connections draw a RST (as a real closed port would)
  // instead of vanishing into the unroutable counter. Packets handed to
  // the default agent still count as unroutable for conservation.
  void set_default_agent(Agent* agent) { default_agent_ = agent; }

  // Transmit through the uplink (all topologies in the paper are
  // single-homed at the edge). Stamps the source node id.
  void send(Packet p);

  void receive(Packet p) override;

  std::uint64_t unroutable_packets() const { return unroutable_; }

  // Accounting for the invariant checker (fault/invariant_checker.hpp):
  // every packet this host injected, handed to an agent, or discarded
  // because a fault injector corrupted it in flight.
  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t packets_delivered_to_agent() const { return delivered_to_agent_; }
  std::uint64_t corrupt_dropped() const { return corrupt_dropped_; }

 private:
  // Dense dispatch table: slot [flow - flow_base_] holds the agent. Flow
  // ids are handed out sequentially per experiment, so the table is a flat
  // array and the receive hot path is one bounds check plus one indexed
  // load — no hashing per packet. register_agent trims the leading empty
  // slots (advancing flow_base_) when the table would reallocate.
  std::vector<Agent*> agents_;
  Agent* default_agent_ = nullptr;
  FlowId flow_base_ = 0;
  std::size_t agent_count_ = 0;
  std::uint64_t unroutable_ = 0;
  std::uint64_t uid_counter_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t delivered_to_agent_ = 0;
  std::uint64_t corrupt_dropped_ = 0;
};

}  // namespace trim::net
