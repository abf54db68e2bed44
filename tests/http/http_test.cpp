#include <gtest/gtest.h>

#include "core/sender_factory.hpp"
#include "exp/experiment.hpp"
#include "http/http_app.hpp"
#include "http/lpt_source.hpp"
#include "http/onoff_source.hpp"
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

// ---------- apps over a real network ----------

struct AppWorld {
  AppWorld() {
    topo::ManyToOneConfig cfg;
    cfg.num_servers = 1;
    topo = build_many_to_one(world.network, cfg);
    flow = core::make_protocol_flow(world.network, *topo.servers[0], *topo.front_end,
                                    tcp::Protocol::kReno, core::ProtocolOptions{});
  }
  exp::World world;
  topo::ManyToOne topo;
  tcp::Flow flow;
};

TEST(HttpResponseApp, SchedulesAndCompletesResponses) {
  AppWorld w;
  HttpResponseApp app{&w.world.simulator, w.flow.sender.get()};
  app.schedule_response(sim::SimTime::millis(1), 5000);
  app.schedule_response(sim::SimTime::millis(2), 7000);
  w.world.simulator.run_until(sim::SimTime::seconds(1));
  EXPECT_EQ(app.scheduled(), 2u);
  EXPECT_EQ(app.completed(), 2u);
  const auto summary = app.completion_summary_ms();
  EXPECT_EQ(summary.count(), 2u);
  EXPECT_LT(summary.max(), 5.0);  // small responses on an idle gigabit path
}

TEST(OnOffSource, ClosedLoopSerializesTrains) {
  AppWorld w;
  OnOffSource source{&w.world.simulator, w.flow.sender.get(),
                     TrainWorkload{sim::Rng{4}}};
  source.run(sim::SimTime::millis(1), sim::SimTime::millis(100));
  w.world.simulator.run_until(sim::SimTime::seconds(2));
  EXPECT_GT(source.trains_emitted(), 3u);
  EXPECT_TRUE(w.flow.sender->idle());
  EXPECT_EQ(w.flow.sender->stats().incomplete_messages(), 0u);
}

TEST(LptSource, KeepsConnectionBackloggedUntilStop) {
  AppWorld w;
  LptSource source{&w.world.simulator, w.flow.sender.get(), 64 * 1024};
  source.run(sim::SimTime::millis(1), sim::SimTime::millis(50));
  w.world.simulator.run_until(sim::SimTime::seconds(2));
  EXPECT_TRUE(w.flow.sender->idle());
  // ~1 Gbps for ~49 ms is several MB.
  EXPECT_GT(source.bytes_emitted(), 2'000'000u);
  EXPECT_EQ(w.flow.receiver->delivered_bytes(), source.bytes_emitted());
}

TEST(LptSource, CannotRunTwice) {
  AppWorld w;
  LptSource source{&w.world.simulator, w.flow.sender.get()};
  source.run(sim::SimTime::millis(1), sim::SimTime::millis(2));
  EXPECT_THROW(source.run(sim::SimTime::millis(3), sim::SimTime::millis(4)),
               std::logic_error);
}

}  // namespace
}  // namespace trim::http
