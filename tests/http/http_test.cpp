#include <gtest/gtest.h>

#include <string>

#include "core/sender_factory.hpp"
#include "exp/experiment.hpp"
#include "http/lpt_source.hpp"
#include "http/response_stream.hpp"
#include "http/train_analyzer.hpp"
#include "http/train_workload.hpp"
#include "topo/many_to_one.hpp"

namespace trim::http {
namespace {

// ---------- TrainWorkload ----------

TEST(TrainWorkload, SizesMatchFig2aProportions) {
  TrainWorkload w{sim::Rng{1}};
  int leq_4k = 0, mid = 0, gt_128k = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto bytes = w.sample_train_bytes();
    ASSERT_GE(bytes, 512u);
    ASSERT_LE(bytes, 262144u);
    if (bytes <= 4096) {
      ++leq_4k;
    } else if (bytes <= 131072) {
      ++mid;
    } else {
      ++gt_128k;
    }
  }
  // Paper: <20% tiny, ~70% between 4 and 128 KB, ~10% above 128 KB.
  EXPECT_NEAR(leq_4k / double(n), 0.18, 0.02);
  EXPECT_NEAR(mid / double(n), 0.72, 0.02);
  EXPECT_NEAR(gt_128k / double(n), 0.10, 0.02);
}

TEST(TrainWorkload, GapsSpanFig2bRange) {
  TrainWorkload w{sim::Rng{2}};
  for (int i = 0; i < 5000; ++i) {
    const auto gap = w.sample_gap();
    EXPECT_GE(gap, sim::SimTime::micros(100));
    EXPECT_LE(gap, sim::SimTime::millis(5));
  }
}

TEST(TrainWorkload, LongTrainClassification) {
  EXPECT_FALSE(TrainWorkload::is_long_train(128 * 1024));
  EXPECT_TRUE(TrainWorkload::is_long_train(128 * 1024 + 1));
  EXPECT_FALSE(TrainWorkload::is_long_train(512));
}

TEST(TrainWorkload, DeterministicForSeed) {
  TrainWorkload a{sim::Rng{7}}, b{sim::Rng{7}};
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.sample_train_bytes(), b.sample_train_bytes());
  }
}

// ---------- TrainAnalyzer ----------

TEST(TrainAnalyzer, SplitsOnGapThreshold) {
  TrainAnalyzer analyzer{sim::SimTime::micros(100)};
  // Train 1: 3 packets 10 us apart.
  analyzer.observe(sim::SimTime::micros(0), 1460);
  analyzer.observe(sim::SimTime::micros(10), 1460);
  analyzer.observe(sim::SimTime::micros(20), 1460);
  // Gap of 500 us -> new train.
  analyzer.observe(sim::SimTime::micros(520), 700);
  const auto& trains = analyzer.finish();
  ASSERT_EQ(trains.size(), 2u);
  EXPECT_EQ(trains[0].packets, 3u);
  EXPECT_EQ(trains[0].bytes, 3u * 1460);
  EXPECT_EQ(trains[0].duration(), sim::SimTime::micros(20));
  EXPECT_EQ(trains[1].packets, 1u);
}

TEST(TrainAnalyzer, GapExactlyAtThresholdStaysInTrain) {
  TrainAnalyzer analyzer{sim::SimTime::micros(100)};
  analyzer.observe(sim::SimTime::micros(0), 100);
  analyzer.observe(sim::SimTime::micros(100), 100);  // == threshold: same train
  EXPECT_EQ(analyzer.finish().size(), 1u);
}

TEST(TrainAnalyzer, CdfsOverDetectedTrains) {
  TrainAnalyzer analyzer{sim::SimTime::micros(50)};
  for (int t = 0; t < 5; ++t) {
    const auto base = sim::SimTime::millis(t);
    for (int p = 0; p <= t; ++p) analyzer.observe(base + sim::SimTime::micros(p), 1000);
  }
  analyzer.finish();
  const auto sizes = analyzer.size_cdf();
  ASSERT_EQ(sizes.size(), 5u);
  EXPECT_DOUBLE_EQ(sizes.min(), 1000.0);
  EXPECT_DOUBLE_EQ(sizes.max(), 5000.0);
  const auto gaps = analyzer.gap_cdf();
  EXPECT_EQ(gaps.size(), 4u);  // n-1 gaps
}

TEST(TrainAnalyzer, RejectsOutOfOrderAndLateObserve) {
  TrainAnalyzer analyzer{sim::SimTime::micros(50)};
  analyzer.observe(sim::SimTime::micros(10), 1);
  EXPECT_THROW(analyzer.observe(sim::SimTime::micros(5), 1), std::invalid_argument);
  analyzer.finish();
  EXPECT_THROW(analyzer.observe(sim::SimTime::micros(20), 1), std::logic_error);
  EXPECT_THROW(TrainAnalyzer{sim::SimTime::zero()}, std::invalid_argument);
}

// ---------- response streams over a real network ----------

struct AppWorld {
  AppWorld() {
    topo::ManyToOneConfig cfg;
    cfg.num_servers = 1;
    topo = build_many_to_one(world.network, cfg);
    flow = core::make_protocol_flow(world.network, *topo.servers[0], *topo.front_end,
                                    tcp::Protocol::kReno, core::ProtocolOptions{});
  }
  const stats::FlowStats& stats() const { return flow.sender->stats(); }

  exp::World world;
  topo::ManyToOne topo;
  tcp::Flow flow;
};

// Samplers that log each draw: 'S' for a size, 'G' for a gap.
struct DrawLog {
  ResponseStream make(AppWorld& w, std::uint64_t bytes, sim::SimTime gap) {
    return ResponseStream{&w.world.simulator, w.flow.sender.get(),
                          [this, bytes] {
                            draws += 'S';
                            return bytes;
                          },
                          [this, gap] {
                            draws += 'G';
                            return gap;
                          }};
  }
  std::string draws;
};

TEST(ResponseStream, CountedStreamDrawsNoGapAfterItsLastMessage) {
  AppWorld w;
  DrawLog log;
  auto stream = log.make(w, 5000, sim::SimTime::millis(1));
  stream.run(sim::SimTime::millis(1), sim::SimTime::max(), 4);
  w.world.simulator.run_until(sim::SimTime::seconds(1));
  EXPECT_EQ(log.draws, "SGSGSGS");
  EXPECT_EQ(w.stats().messages().size(), 4u);
  EXPECT_EQ(w.stats().incomplete_messages(), 0u);
}

TEST(ResponseStream, StoppedStreamDrawsOneGapAfterEachMessage) {
  AppWorld w;
  DrawLog log;
  auto stream = log.make(w, 5000, sim::SimTime::millis(1));
  stream.run(sim::SimTime::millis(1), sim::SimTime::millis(10));
  w.world.simulator.run_until(sim::SimTime::seconds(1));
  const std::size_t n = w.stats().messages().size();
  ASSERT_GE(n, 3u);
  std::string expected;
  for (std::size_t i = 0; i < n; ++i) expected += "SG";
  EXPECT_EQ(log.draws, expected);
  // The gap drawn after the last completion would start a message at or
  // after the stop.
  const auto& last = w.stats().messages().back();
  ASSERT_TRUE(last.done());
  EXPECT_GE(*last.completed + sim::SimTime::millis(1), sim::SimTime::millis(10));
  for (const auto& m : w.stats().messages()) EXPECT_LT(m.start, sim::SimTime::millis(10));
}

TEST(ResponseStream, FixedGapStartsOneGapAfterCompletion) {
  AppWorld w;
  const auto gap = sim::SimTime::micros(700);
  ResponseStream stream{&w.world.simulator, w.flow.sender.get(),
                        [] { return std::uint64_t{20 * 1460}; }, [gap] { return gap; }};
  stream.run(sim::SimTime::millis(2), sim::SimTime::max(), 10);
  w.world.simulator.run_until(sim::SimTime::seconds(1));
  const auto& msgs = w.stats().messages();
  ASSERT_EQ(msgs.size(), 10u);
  EXPECT_EQ(msgs[0].start, sim::SimTime::millis(2));
  for (std::size_t i = 1; i < msgs.size(); ++i) {
    ASSERT_TRUE(msgs[i - 1].done());
    EXPECT_EQ(msgs[i].start, *msgs[i - 1].completed + gap);
  }
}

// A zero gap writes inside the completion callback, as a hand-rolled
// backlogged loop does: the same world dispatches exactly the same events.
TEST(ResponseStream, ZeroGapDispatchesNoEventOfItsOwn) {
  const std::uint64_t bytes = 64 * 1024;
  const int count = 20;

  AppWorld streamed;
  ResponseStream stream{&streamed.world.simulator, streamed.flow.sender.get(),
                        [bytes] { return bytes; }, [] { return sim::SimTime::zero(); }};
  stream.run(sim::SimTime::millis(1), sim::SimTime::max(), count);
  streamed.world.simulator.run_until(sim::SimTime::seconds(1));

  AppWorld inline_loop;
  tcp::TcpSender* sender = inline_loop.flow.sender.get();
  int written = 0;
  sender->add_message_complete_callback([&](std::uint64_t, sim::SimTime) {
    if (written < count) {
      ++written;
      sender->write(bytes);
    }
  });
  inline_loop.world.simulator.schedule_at(sim::SimTime::millis(1), [&] {
    ++written;
    sender->write(bytes);
  });
  inline_loop.world.simulator.run_until(sim::SimTime::seconds(1));

  EXPECT_EQ(streamed.stats().messages().size(), static_cast<std::size_t>(count));
  EXPECT_EQ(streamed.world.simulator.events_dispatched(),
            inline_loop.world.simulator.events_dispatched());
  EXPECT_EQ(streamed.stats().completed_message_times(),
            inline_loop.stats().completed_message_times());
}

TEST(ResponseStream, StopAndCountEachEndTheStream) {
  AppWorld counted;
  ResponseStream by_count{&counted.world.simulator, counted.flow.sender.get(),
                          [] { return std::uint64_t{3000}; },
                          [] { return sim::SimTime::millis(2); }};
  by_count.run(sim::SimTime::millis(1), sim::SimTime::max(), 5);
  counted.world.simulator.run_until(sim::SimTime::seconds(1));
  EXPECT_EQ(counted.stats().messages().size(), 5u);

  AppWorld stopped;
  ResponseStream by_stop{&stopped.world.simulator, stopped.flow.sender.get(),
                         [] { return std::uint64_t{3000}; },
                         [] { return sim::SimTime::millis(2); }};
  by_stop.run(sim::SimTime::millis(1), sim::SimTime::millis(20));
  stopped.world.simulator.run_until(sim::SimTime::seconds(1));
  const auto& msgs = stopped.stats().messages();
  ASSERT_GE(msgs.size(), 5u);
  EXPECT_LT(msgs.size(), 10u);  // each message is followed by a 2 ms gap
  EXPECT_LT(msgs.back().start, sim::SimTime::millis(20));
  EXPECT_EQ(stopped.stats().incomplete_messages(), 0u);
}

TEST(ResponseStream, RejectsEmptyStreamsAndASecondRun) {
  AppWorld w;
  ResponseStream stream{&w.world.simulator, w.flow.sender.get(),
                        [] { return std::uint64_t{1000}; },
                        [] { return sim::SimTime::millis(1); }};
  EXPECT_THROW(stream.run(sim::SimTime::millis(5), sim::SimTime::millis(5)), ConfigError);
  EXPECT_THROW(stream.run(sim::SimTime::millis(5), sim::SimTime::millis(4)), ConfigError);
  EXPECT_THROW(stream.run(sim::SimTime::millis(1), sim::SimTime::max(), 0), ConfigError);
  stream.run(sim::SimTime::millis(1), sim::SimTime::millis(2));
  EXPECT_THROW(stream.run(sim::SimTime::millis(3), sim::SimTime::millis(4)), ConfigError);
}

TEST(ResponseStream, ClosedLoopSerializesTrains) {
  AppWorld w;
  TrainWorkload workload{sim::Rng{4}};
  ResponseStream stream{&w.world.simulator, w.flow.sender.get(),
                        [&workload] { return workload.sample_train_bytes(); },
                        [&workload] { return workload.sample_gap(); }};
  stream.run(sim::SimTime::millis(1), sim::SimTime::millis(100));
  w.world.simulator.run_until(sim::SimTime::seconds(2));
  EXPECT_GT(w.stats().messages().size(), 3u);
  EXPECT_TRUE(w.flow.sender->idle());
  EXPECT_EQ(w.stats().incomplete_messages(), 0u);
}

TEST(LptSource, KeepsConnectionBackloggedUntilStop) {
  AppWorld w;
  LptSource source{&w.world.simulator, w.flow.sender.get(), 64 * 1024};
  source.run(sim::SimTime::millis(1), sim::SimTime::millis(50));
  w.world.simulator.run_until(sim::SimTime::seconds(2));
  EXPECT_TRUE(w.flow.sender->idle());
  // ~1 Gbps for ~49 ms is several MB.
  EXPECT_GT(w.flow.sender->bytes_written(), 2'000'000u);
  EXPECT_EQ(w.flow.receiver->delivered_bytes(), w.flow.sender->bytes_written());
}

TEST(LptSource, CannotRunTwice) {
  AppWorld w;
  LptSource source{&w.world.simulator, w.flow.sender.get()};
  source.run(sim::SimTime::millis(1), sim::SimTime::millis(2));
  EXPECT_THROW(source.run(sim::SimTime::millis(3), sim::SimTime::millis(4)),
               ConfigError);
}

}  // namespace
}  // namespace trim::http
