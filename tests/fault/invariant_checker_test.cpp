#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/sender_factory.hpp"
#include "exp/experiment.hpp"
#include "fault/fault_injector.hpp"
#include "fault/invariant_checker.hpp"
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
    for (auto& f : inc.flows) {
      checker.watch(*f.sender);
      f.sender->write(300 * 1460);
    }
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
  for (auto& f : inc.flows) {
    checker.watch(*f.sender);
    f.sender->write(2000 * 1460);
  }
  // Dense grid while the bottleneck queue is full and dropping.
  checker.schedule_checkpoints(sim::SimTime::micros(500),
                               sim::SimTime::millis(50));
  inc.world.simulator.run_until(sim::SimTime::millis(50));
  EXPECT_EQ(checker.checkpoints_run(), 100u);
  EXPECT_TRUE(checker.violations().empty())
      << checker.violations().front().detail;
}

// A fault injector dropping packets is a legitimate sink only when the
// checker knows about it: unwatched, its drops must surface as a
// conservation leak — that asymmetry is what proves the equation is tight.
TEST(InvariantChecker, UnwatchedInjectorIsAConservationLeak) {
  for (const bool watched : {true, false}) {
    Incast inc{tcp::Protocol::kReno};
    FaultConfig fc;
    fc.seed = 5;
    fc.loss_probability = 0.05;
    FaultInjector inj{&inc.world.simulator, fc};
    inj.attach(*inc.topo.bottleneck);

    InvariantChecker checker{&inc.world.simulator, &inc.world.network};
    if (watched) checker.watch(inj);
    for (auto& f : inc.flows) {
      checker.watch(*f.sender);
      f.sender->write(500 * 1460);
    }
    inc.world.simulator.run_until(sim::SimTime::seconds(3));
    ASSERT_GT(inj.stats().injected_drops(), 0u);  // faults actually fired
    checker.check_now();
    if (watched) {
      EXPECT_TRUE(checker.violations().empty())
          << checker.violations().front().detail;
    } else {
      ASSERT_FALSE(checker.violations().empty());
      EXPECT_EQ(checker.violations().front().invariant, "packet-conservation");
    }
  }
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
  checker.watch(inj);
  for (auto& f : inc.flows) {
    checker.watch(*f.sender);
    f.sender->write(500 * 1460);
  }
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
