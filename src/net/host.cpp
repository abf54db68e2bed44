#include "net/host.hpp"

#include <algorithm>
#include <string>

#include "net/link.hpp"
#include "sim/config_error.hpp"

namespace trim::net {

void Host::register_agent(FlowId flow, Agent* agent) {
  if (agent == nullptr) {
    throw ConfigError{"null agent",
                      "Host::register_agent, host " + name_ + ", flow " +
                          std::to_string(flow),
                      "a live TCP sender/receiver"};
  }
  if (agents_.empty()) {
    flow_base_ = flow;
    agents_.push_back(nullptr);
  } else if (flow < flow_base_) {
    // Grow downward (rare: ids are handed out in increasing order).
    agents_.insert(agents_.begin(), flow_base_ - flow, nullptr);
    flow_base_ = flow;
  } else if (flow - flow_base_ >= agents_.size()) {
    // Before the table reallocates, drop its leading run of empty slots if
    // that run is at least half the table: a churning host keeps only its
    // live span, and the slots appended since the last trim pay for this one.
    if (flow - flow_base_ >= agents_.capacity()) {
      const auto live = std::find_if(agents_.begin(), agents_.end(),
                                     [](const Agent* a) { return a != nullptr; });
      const auto lead = static_cast<std::size_t>(live - agents_.begin());
      if (2 * lead >= agents_.size()) {
        agents_.erase(agents_.begin(), live);
        flow_base_ += static_cast<FlowId>(lead);
      }
    }
    agents_.resize(flow - flow_base_ + 1, nullptr);
  }
  Agent*& slot = agents_[flow - flow_base_];
  if (slot != nullptr) {
    throw ConfigError{"duplicate flow id",
                      "Host::register_agent, host " + name_ + ", flow " +
                          std::to_string(flow),
                      "flow ids must be unique per host"};
  }
  slot = agent;
  ++agent_count_;
}

void Host::unregister_agent(FlowId flow) {
  if (agents_.empty() || flow < flow_base_ || flow - flow_base_ >= agents_.size()) return;
  Agent*& slot = agents_[flow - flow_base_];
  if (slot == nullptr) return;
  slot = nullptr;
  if (--agent_count_ == 0) {
    agents_.clear();
    agents_.shrink_to_fit();
  }
}

void Host::send(Packet p) {
  if (out_links_.empty()) {
    throw ConfigError{"no uplink attached", "Host::send, host " + name_,
                      "attach the host to a link before starting traffic"};
  }
  p.src = id_;
  // Unique per simulation: high bits = host id, low bits = per-host counter.
  if (p.uid == 0) p.uid = (static_cast<std::uint64_t>(id_) << 40) | ++uid_counter_;
  ++packets_sent_;
  out_links_[0]->send(std::move(p));
}

void Host::receive(Packet p) {
  if (p.corrupted) {
    // The frame failed its checksum (fault/fault_injector.hpp): it used
    // link bandwidth but no transport layer ever sees it.
    ++corrupt_dropped_;
    return;
  }
  Agent* agent = nullptr;
  if (p.flow >= flow_base_ && p.flow - flow_base_ < agents_.size()) {
    agent = agents_[p.flow - flow_base_];
  }
  if (agent == nullptr) {
    ++unroutable_;
    if (default_agent_ != nullptr) {
      // Still unroutable for conservation purposes — the default agent
      // (e.g. tcp::RstResponder) only decides how the host answers.
      default_agent_->on_packet(p);
      return;
    }
    return;
  }
  ++delivered_to_agent_;
  agent->on_packet(p);
}

}  // namespace trim::net
