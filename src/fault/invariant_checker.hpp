// Simulation-wide invariant checker / watchdog.
//
// Watches a Network — every TCP sender and receiver registered on its
// hosts, plus any listen queues handed to watch() — and verifies, at
// checkpoints, that the simulation is still self-consistent:
//
//   * packet conservation — every packet ever injected by a host (plus
//     fault-made duplicates) is accounted for: delivered to an agent,
//     dropped with a counter (queue drop, fault drop, corrupt frame,
//     unroutable), or demonstrably in the network (queued, serializing, or
//     propagating on some link). Fault drops and duplicates are read from
//     the injector attached to each link at the checkpoint. A leak on
//     either side means a counter or an event went missing;
//   * cwnd bounds — every sender satisfies cwnd >= its configured
//     minimum; TCP-TRIM senders additionally satisfy the paper's hard
//     floor cwnd >= 2 (Eq. 1 clamp, Sec. III-C);
//   * per-flow liveness — a sender with unacked data has something armed
//     that will move it forward: the retransmission timer or a
//     congestion-control wakeup (TRIM's probe timer). Without one the flow
//     is wedged forever;
//   * probe-state sanity — a TRIM sender that suspended transmission
//     (probing) must have a pending wakeup or an armed RTO as backstop;
//   * lifecycle liveness — an endpoint in a state that waits on the peer
//     (SYN_SENT, SYN_RCVD, FIN_WAIT_1, CLOSING, LAST_ACK) must have a
//     retransmission timer armed, and TIME_WAIT must hold its dwell timer,
//     or the connection can never finish closing;
//   * no data before ESTABLISHED — a receiver must never have
//     accepted a data segment while no connection was open;
//   * backlog bounds — a watched listen queue's occupancy (and recorded
//     peak) stays within [0, depth].
//
// Checks run at explicit checkpoints: call check_now() wherever you like,
// or schedule_checkpoints() to sample on a fixed grid during the run.
// Checking is read-only — it draws no randomness and mutates nothing — so
// an enabled checker never changes simulation results.
//
// Violations are recorded (not thrown) so a sweep can report every broken
// run, and each is warned through sim::warn as it is recorded;
// exp::InvariantScope turns them into a loud failure at scope exit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace trim::net {
class Network;
}
namespace trim::tcp {
class ListenQueue;
class TcpReceiver;
class TcpSender;
}

namespace trim::fault {

struct Violation {
  std::string invariant;  // which check failed ("packet-conservation", ...)
  std::string detail;     // the numbers that disagree
  sim::SimTime at;        // simulation time of the checkpoint
};

class InvariantChecker {
 public:
  InvariantChecker(sim::Simulator* sim, net::Network* network);

  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  // Endpoints need no registration: each checkpoint checks the senders
  // and receivers registered on the network's hosts at that moment (a
  // destroyed endpoint has unregistered itself). Senders get the cwnd /
  // liveness / probe checks plus — when the lifecycle is on — the
  // state-machine checks (a state that is waiting on the peer must have a
  // timer armed; TIME_WAIT must hold its dwell timer); receivers get the
  // passive-side lifecycle checks and the no-data-before-ESTABLISHED
  // invariant.
  //
  // Listen queues are not a host's agents, so they are watched: the
  // occupancy bound is 0 <= occupancy <= depth, and the same for the
  // recorded peak. A watched queue must outlive the checker's last
  // checkpoint.
  void watch(tcp::ListenQueue& queue);

  // Run every check at the current simulation time.
  void check_now();
  // Schedule check_now() at interval, 2*interval, ... up to `until`
  // (inclusive). Events are scheduled up front so the checker never keeps
  // an otherwise-finished simulation alive.
  void schedule_checkpoints(sim::SimTime interval, sim::SimTime until);

  const std::vector<Violation>& violations() const { return violations_; }
  std::uint64_t checkpoints_run() const { return checkpoints_; }

  // Record a violation and warn it, stamped with the current simulation
  // time. The built-in checks call this; scenarios call it for their own
  // end-of-run invariants.
  void report(std::string invariant, std::string detail);

 private:
  void check_conservation();
  void check_endpoints();
  void check_sender(const tcp::TcpSender& s);
  void check_receiver(const tcp::TcpReceiver& r);
  void check_listen_queues();

  sim::Simulator* sim_;
  net::Network* network_;
  std::vector<tcp::ListenQueue*> listen_queues_;
  std::vector<Violation> violations_;
  std::uint64_t checkpoints_ = 0;
};

}  // namespace trim::fault
