#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/sender_factory.hpp"
#include "exp/experiment.hpp"
#include "fault/fault_injector.hpp"
#include "fault/invariant_checker.hpp"
#include "sim/logging.hpp"
#include "topo/many_to_one.hpp"

namespace trim::fault {
namespace {

struct Incast {
  explicit Incast(tcp::Protocol protocol, int num_servers = 3) {
    topo::ManyToOneConfig cfg;
    cfg.num_servers = num_servers;
    topo = build_many_to_one(world.network, cfg);
    const auto opts =
        exp::default_options(protocol, cfg.link_bps, sim::SimTime::millis(200));
    for (int i = 0; i < num_servers; ++i) {
      flows.push_back(core::make_protocol_flow(world.network, *topo.servers[i],
                                               *topo.front_end, protocol, opts));
    }
  }

  exp::World world;
  topo::ManyToOne topo;
  std::vector<tcp::Flow> flows;
};

TEST(InvariantChecker, CleanRunsHaveNoViolations) {
  for (auto protocol :
       {tcp::Protocol::kReno, tcp::Protocol::kDctcp, tcp::Protocol::kTrim}) {
    Incast inc{protocol};
    InvariantChecker checker{&inc.world.simulator, &inc.world.network};
    for (auto& f : inc.flows) f.sender->write(300 * 1460);
    checker.schedule_checkpoints(sim::SimTime::millis(10),
                                 sim::SimTime::seconds(2));
    inc.world.simulator.run_until(sim::SimTime::seconds(2));
    checker.check_now();
    EXPECT_TRUE(checker.violations().empty())
        << tcp::to_string(protocol) << ": "
        << checker.violations().front().invariant << " — "
        << checker.violations().front().detail;
    EXPECT_GT(checker.checkpoints_run(), 0u);
  }
}

// Mid-flight checkpoints must also balance: packets sitting in queues, on
// the wire, or propagating are counted as in-network, not leaked.
TEST(InvariantChecker, ConservationHoldsMidFlight) {
  Incast inc{tcp::Protocol::kReno, 5};
  InvariantChecker checker{&inc.world.simulator, &inc.world.network};
  for (auto& f : inc.flows) f.sender->write(2000 * 1460);
  // Dense grid while the bottleneck queue is full and dropping.
  checker.schedule_checkpoints(sim::SimTime::micros(500),
                               sim::SimTime::millis(50));
  inc.world.simulator.run_until(sim::SimTime::millis(50));
  EXPECT_EQ(checker.checkpoints_run(), 100u);
  EXPECT_TRUE(checker.violations().empty())
      << checker.violations().front().detail;
}

// The checker finds fault injectors on the links themselves: an attached
// injector's drops balance the books with no registration.
TEST(InvariantChecker, AttachedInjectorNeedsNoRegistration) {
  Incast inc{tcp::Protocol::kReno};
  FaultConfig fc;
  fc.seed = 5;
  fc.loss_probability = 0.05;
  FaultInjector inj{&inc.world.simulator, fc};
  inj.attach(*inc.topo.bottleneck);

  InvariantChecker checker{&inc.world.simulator, &inc.world.network};
  for (auto& f : inc.flows) f.sender->write(500 * 1460);
  inc.world.simulator.run_until(sim::SimTime::seconds(3));
  ASSERT_GT(inj.stats().injected_drops(), 0u);  // faults actually fired
  checker.check_now();
  EXPECT_TRUE(checker.violations().empty())
      << checker.violations().front().detail;
}

// The equation stays tight: drops no counter still holds must surface as a
// leak. A destroyed injector detaches itself, so the packets it dropped
// leave the books.
TEST(InvariantChecker, DestroyedInjectorsDropsAreAConservationLeak) {
  sim::CaptureLogSink capture;  // the violation is warned; keep it here
  Incast inc{tcp::Protocol::kReno};
  FaultConfig fc;
  fc.seed = 5;
  fc.loss_probability = 0.05;
  auto inj = std::make_unique<FaultInjector>(&inc.world.simulator, fc);
  inj->attach(*inc.topo.bottleneck);

  InvariantChecker checker{&inc.world.simulator, &inc.world.network};
  for (auto& f : inc.flows) f.sender->write(500 * 1460);
  inc.world.simulator.run_until(sim::SimTime::millis(100));
  ASSERT_GT(inj->stats().injected_drops(), 0u);
  checker.check_now();
  EXPECT_TRUE(checker.violations().empty())
      << checker.violations().front().detail;

  inj.reset();
  checker.check_now();
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations().front().invariant, "packet-conservation");
}

// Endpoints need no registration either: the checker finds the senders and
// receivers registered on the network's hosts. A receiver that expects a
// handshake sits in LISTEN, so data from a sender that skips the handshake
// breaks no-data-before-ESTABLISHED.
TEST(InvariantChecker, FindsEndpointsOnTheirHosts) {
  sim::CaptureLogSink capture;  // the violation is warned; keep it here
  exp::World world;
  topo::ManyToOneConfig cfg;
  cfg.num_servers = 1;
  const auto topo = build_many_to_one(world.network, cfg);
  tcp::ReceiverConfig rcfg;
  rcfg.expect_handshake = true;
  auto flow = core::make_protocol_flow(world.network, *topo.servers[0], *topo.front_end,
                                       tcp::Protocol::kReno, core::ProtocolOptions{},
                                       rcfg);
  ASSERT_FALSE(flow.sender->config().simulate_handshake);

  InvariantChecker checker{&world.simulator, &world.network};
  flow.sender->write(10 * 1460);
  world.simulator.run_until(sim::SimTime::millis(10));
  ASSERT_GT(flow.receiver->data_before_established(), 0u);
  checker.check_now();
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations().front().invariant, "data-before-established");
}

// Every recorded violation is warned as it is recorded, stamped with the
// simulation time of its checkpoint.
TEST(InvariantChecker, ViolationsAreWarnedWithTheirCheckpointTime) {
  sim::CaptureLogSink capture;
  Incast inc{tcp::Protocol::kReno};
  InvariantChecker checker{&inc.world.simulator, &inc.world.network};
  inc.world.simulator.run_until(sim::SimTime::millis(7));
  checker.report("custom-invariant", "the numbers disagree");
  ASSERT_EQ(capture.records().size(), 1u);
  EXPECT_DOUBLE_EQ(capture.records()[0].sim_time_s, 0.007);
  EXPECT_EQ(capture.records()[0].message,
            "INVARIANT VIOLATION [custom-invariant]: the numbers disagree");
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations()[0].at, sim::SimTime::millis(7));
}

TEST(InvariantChecker, WatchedInjectorFaultMatrixStaysConserved) {
  // Every delivery-side fault at once — duplication in particular adds
  // packets the conservation equation must absorb on both sides.
  Incast inc{tcp::Protocol::kTrim};
  FaultConfig fc;
  fc.seed = 9;
  fc.loss_probability = 0.02;
  fc.corrupt_probability = 0.02;
  fc.duplicate_probability = 0.05;
  fc.reorder_probability = 0.02;
  fc.reorder_extra_max = sim::SimTime::micros(100);
  fc.jitter_max = sim::SimTime::micros(20);
  FaultInjector inj{&inc.world.simulator, fc};
  inj.attach(*inc.topo.bottleneck);

  InvariantChecker checker{&inc.world.simulator, &inc.world.network};
  for (auto& f : inc.flows) f.sender->write(500 * 1460);
  checker.schedule_checkpoints(sim::SimTime::millis(5), sim::SimTime::seconds(3));
  inc.world.simulator.run_until(sim::SimTime::seconds(3));
  checker.check_now();
  EXPECT_GT(inj.stats().duplicated, 0u);
  EXPECT_TRUE(checker.violations().empty())
      << checker.violations().front().invariant << " — "
      << checker.violations().front().detail;
}

}  // namespace
}  // namespace trim::fault
