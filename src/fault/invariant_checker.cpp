#include "fault/invariant_checker.hpp"

#include <string>

#include "fault/fault_injector.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "net/network.hpp"
#include "net/switch.hpp"
#include "sim/config_error.hpp"
#include "sim/logging.hpp"
#include "tcp/listen_queue.hpp"
#include "tcp/tcp_common.hpp"
#include "tcp/tcp_receiver.hpp"
#include "tcp/tcp_sender.hpp"

namespace trim::fault {

InvariantChecker::InvariantChecker(sim::Simulator* sim, net::Network* network)
    : sim_{sim}, network_{network} {
  if (sim_ == nullptr || network_ == nullptr) {
    throw ConfigError{"null simulator or network", "InvariantChecker"};
  }
}

namespace {

// True for the states whose only way forward is a peer response: without
// an armed retransmission timer the connection is wedged if that response
// was lost.
bool needs_retx_timer(tcp::ConnState s) {
  return s == tcp::ConnState::kSynSent || s == tcp::ConnState::kSynRcvd ||
         s == tcp::ConnState::kFinWait1 || s == tcp::ConnState::kClosing ||
         s == tcp::ConnState::kLastAck;
}

}  // namespace

void InvariantChecker::watch(tcp::ListenQueue& queue) {
  listen_queues_.push_back(&queue);
}

void InvariantChecker::report(std::string invariant, std::string detail) {
  violations_.push_back({std::move(invariant), std::move(detail), sim_->now()});
  const Violation& v = violations_.back();
  sim::warn(v.at.to_seconds(), "INVARIANT VIOLATION [%s]: %s", v.invariant.c_str(),
            v.detail.c_str());
}

void InvariantChecker::check_now() {
  ++checkpoints_;
  check_conservation();
  check_endpoints();
  check_listen_queues();
}

void InvariantChecker::schedule_checkpoints(sim::SimTime interval,
                                            sim::SimTime until) {
  if (interval <= sim::SimTime::zero()) {
    throw ConfigError{"non-positive checkpoint interval",
                      "InvariantChecker::schedule_checkpoints", "> 0"};
  }
  for (auto t = sim_->now() + interval; t <= until; t = t + interval) {
    sim_->schedule_at(t, [this] { check_now(); });
  }
}

void InvariantChecker::check_conservation() {
  // Sources: host injections plus fault-made duplicates. Sinks: agent
  // deliveries, every counted drop, and what is verifiably still inside
  // the network. See the header for the derivation; per link the in-flight
  // population is enqueued + duplicates_created - arrivals_fired.
  std::uint64_t sent = 0, delivered = 0, unroutable = 0, corrupt = 0;
  for (std::size_t id = 0; id < network_->node_count(); ++id) {
    net::Node& n = network_->node(static_cast<net::NodeId>(id));
    if (auto* host = dynamic_cast<net::Host*>(&n)) {
      sent += host->packets_sent();
      delivered += host->packets_delivered_to_agent();
      corrupt += host->corrupt_dropped();
      unroutable += host->unroutable_packets();
    } else if (auto* sw = dynamic_cast<net::Switch*>(&n)) {
      unroutable += sw->unroutable_packets();
    }
  }

  std::uint64_t queue_drops = 0, in_network = 0, fault_drops = 0, duplicated = 0;
  for (const auto& link : network_->links()) {
    const auto& qs = link->queue().stats();
    queue_drops += qs.dropped;
    in_network += qs.enqueued - link->packets_arrived();
    if (const FaultInjector* inj = link->fault_injector()) {
      fault_drops += inj->stats().injected_drops();
      duplicated += inj->stats().duplicated;
    }
  }
  in_network += duplicated;  // dups enter the wire without an enqueue

  const std::uint64_t sources = sent + duplicated;
  const std::uint64_t sinks =
      delivered + unroutable + corrupt + queue_drops + fault_drops + in_network;
  if (sources != sinks) {
    report("packet-conservation",
           "sent=" + std::to_string(sent) + " +dup=" + std::to_string(duplicated) +
               " != delivered=" + std::to_string(delivered) +
               " +unroutable=" + std::to_string(unroutable) +
               " +corrupt=" + std::to_string(corrupt) +
               " +queue_drops=" + std::to_string(queue_drops) +
               " +fault_drops=" + std::to_string(fault_drops) +
               " +in_network=" + std::to_string(in_network));
  }
}

void InvariantChecker::check_endpoints() {
  for (std::size_t id = 0; id < network_->node_count(); ++id) {
    const auto* host =
        dynamic_cast<const net::Host*>(&network_->node(static_cast<net::NodeId>(id)));
    if (host == nullptr) continue;
    host->for_each_agent([this](const net::Agent& a) {
      if (const auto* s = dynamic_cast<const tcp::TcpSender*>(&a)) {
        check_sender(*s);
      } else if (const auto* r = dynamic_cast<const tcp::TcpReceiver*>(&a)) {
        check_receiver(*r);
      }
    });
  }
}

void InvariantChecker::check_sender(const tcp::TcpSender& s) {
  // Tolerance for the double-valued window: a bound violated by less than
  // this is floating-point noise, not a protocol bug.
  constexpr double kEps = 1e-9;
  const std::string who = "flow " + std::to_string(s.flow_id()) + " (" +
                          tcp::to_string(s.protocol()) + ")";
  if (s.cwnd() < s.config().min_cwnd - kEps) {
    report("cwnd-bounds", who + ": cwnd=" + std::to_string(s.cwnd()) +
                              " < min_cwnd=" + std::to_string(s.config().min_cwnd));
  }
  if (s.protocol() == tcp::Protocol::kTrim && s.cwnd() < 2.0 - kEps) {
    report("trim-cwnd-floor",
           who + ": cwnd=" + std::to_string(s.cwnd()) + " < 2 (Eq. 1 clamp)");
  }
  if (!s.idle() && s.connection_established() && !s.retransmit_timer_armed() &&
      !s.cc_wakeup_pending()) {
    report("flow-liveness",
           who + ": " + std::to_string(s.in_flight()) +
               " segment(s) outstanding, snd_una=" + std::to_string(s.snd_una()) +
               ", but no RTO armed and no CC wakeup pending");
  }
  if (s.cc_suspended() && !s.cc_wakeup_pending() && !s.retransmit_timer_armed()) {
    report("probe-state",
           who + ": transmission suspended with no probe timer and no RTO");
  }
  if (s.config().simulate_handshake) {
    const auto st = s.conn_state();
    if (needs_retx_timer(st) && !s.retransmit_timer_armed()) {
      report("lifecycle-liveness",
             who + ": state " + tcp::to_string(st) + " with no RTO armed");
    }
    if (st == tcp::ConnState::kTimeWait && !s.time_wait_timer_armed()) {
      report("lifecycle-liveness", who + ": TIME_WAIT with no dwell timer armed");
    }
  }
}

void InvariantChecker::check_receiver(const tcp::TcpReceiver& r) {
  const std::string who = "receiver flow " + std::to_string(r.flow_id());
  if (r.data_before_established() > 0) {
    report("data-before-established",
           who + ": " + std::to_string(r.data_before_established()) +
               " data segment(s) arrived with no connection open");
  }
  if (!r.lifecycle_active()) return;
  const auto st = r.conn_state();
  if (needs_retx_timer(st) && !r.retx_timer_armed()) {
    report("lifecycle-liveness", who + ": state " + tcp::to_string(st) +
                                     " with no control retransmission timer armed");
  }
  if (st == tcp::ConnState::kTimeWait && !r.time_wait_timer_armed()) {
    report("lifecycle-liveness", who + ": TIME_WAIT with no dwell timer armed");
  }
}

void InvariantChecker::check_listen_queues() {
  for (const auto* q : listen_queues_) {
    if (q->occupancy() > q->depth()) {
      report("backlog-bounds",
             "listen queue: occupancy=" + std::to_string(q->occupancy()) +
                 " > depth=" + std::to_string(q->depth()));
    }
    if (q->stats().peak_occupancy > q->depth()) {
      report("backlog-bounds",
             "listen queue: peak=" + std::to_string(q->stats().peak_occupancy) +
                 " > depth=" + std::to_string(q->depth()));
    }
  }
}

}  // namespace trim::fault
