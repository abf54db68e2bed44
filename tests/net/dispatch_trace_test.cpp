// Flat flow-dispatch table (Host): the bounded-state demux structure on
// the packet hot path.
#include <gtest/gtest.h>

#include "net/host.hpp"
#include "sim/simulator.hpp"

namespace trim::net {
namespace {

class CountingAgent : public Agent {
 public:
  void on_packet(const Packet&) override { ++count; }
  int count = 0;
};

Packet data_for(FlowId flow) {
  Packet p;
  p.flow = flow;
  p.payload_bytes = 100;
  return p;
}

// ---------- Host flat dispatch ----------

TEST(HostDispatch, RoutesByFlowIdAndCountsUnroutable) {
  sim::Simulator sim;
  Host h{&sim, 0, "h"};
  CountingAgent a1, a2;
  h.register_agent(7, &a1);
  h.register_agent(9, &a2);

  h.receive(data_for(7));
  h.receive(data_for(9));
  h.receive(data_for(9));
  h.receive(data_for(8));   // hole inside the table
  h.receive(data_for(100)); // beyond the table
  h.receive(data_for(2));   // below the table's base
  EXPECT_EQ(a1.count, 1);
  EXPECT_EQ(a2.count, 2);
  EXPECT_EQ(h.unroutable_packets(), 3u);
}

TEST(HostDispatch, TableGrowsDownwardForOutOfOrderRegistration) {
  // Ids registered high-then-low: the dense table must rebase, not drop.
  sim::Simulator sim;
  Host h{&sim, 0, "h"};
  CountingAgent hi, lo;
  h.register_agent(50, &hi);
  h.register_agent(3, &lo);
  h.receive(data_for(50));
  h.receive(data_for(3));
  EXPECT_EQ(hi.count, 1);
  EXPECT_EQ(lo.count, 1);
  EXPECT_EQ(h.unroutable_packets(), 0u);
}

TEST(HostDispatch, RegistrationValidatesInput) {
  sim::Simulator sim;
  Host h{&sim, 0, "h"};
  CountingAgent a, b;
  EXPECT_THROW(h.register_agent(1, nullptr), std::invalid_argument);
  h.register_agent(1, &a);
  EXPECT_THROW(h.register_agent(1, &b), std::logic_error);
}

TEST(HostDispatch, UnregisterFreesSlotForReuse) {
  sim::Simulator sim;
  Host h{&sim, 0, "h"};
  CountingAgent a, b;
  h.register_agent(4, &a);
  h.unregister_agent(4);
  h.receive(data_for(4));
  EXPECT_EQ(h.unroutable_packets(), 1u);
  h.register_agent(4, &b);  // slot is reusable after unregister
  h.receive(data_for(4));
  EXPECT_EQ(b.count, 1);
  h.unregister_agent(4);
  h.unregister_agent(4);    // double/unknown unregister is a no-op
  h.unregister_agent(999);
}

}  // namespace
}  // namespace trim::net
