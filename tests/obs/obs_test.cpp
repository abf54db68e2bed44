// Unit tests for the obs layer: metrics registry and percentiles, flight
// recorder, subject ids, event-kind names, and the scoped profiler.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "obs/events.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "sim/config_error.hpp"

namespace trim::obs {
namespace {

TEST(MetricsRegistry, FindOrCreateReturnsStableHandles) {
  MetricsRegistry reg;
  Counter* c = reg.counter("tcp.segments_sent");
  EXPECT_EQ(c, reg.counter("tcp.segments_sent"));
  c->inc();
  c->inc(4);
  EXPECT_EQ(c->value, 5u);

  Gauge* g = reg.gauge("queue.depth");
  g->set(17.5);
  EXPECT_EQ(g, reg.gauge("queue.depth"));

  // Handles are map nodes: registering many more names moves neither.
  for (int i = 0; i < 1000; ++i) reg.counter("c" + std::to_string(i));
  EXPECT_EQ(c, reg.counter("tcp.segments_sent"));
  EXPECT_EQ(c->value, 5u);
  EXPECT_EQ(g, reg.gauge("queue.depth"));
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.size(), 1001u);
  EXPECT_EQ(snap.gauges.size(), 1u);
}

TEST(MetricsRegistry, HistogramBucketsAndOverflow) {
  MetricsRegistry reg;
  Histogram* h = reg.histogram("rtt_us", 0.0, 100.0, 10);
  h->observe(-1.0);   // underflow
  h->observe(0.0);    // first bucket
  h->observe(55.0);   // bucket 5
  h->observe(99.99);  // last bucket
  h->observe(100.0);  // overflow (hi is exclusive)
  EXPECT_EQ(h->underflow, 1u);
  EXPECT_EQ(h->overflow, 1u);
  EXPECT_EQ(h->count, 5u);
  EXPECT_EQ(h->bins[0], 1u);
  EXPECT_EQ(h->bins[5], 1u);
  EXPECT_EQ(h->bins[9], 1u);
  EXPECT_DOUBLE_EQ(h->sum, -1.0 + 0.0 + 55.0 + 99.99 + 100.0);
  EXPECT_DOUBLE_EQ(h->max, 100.0);
}

TEST(MetricsRegistry, HistogramShapeMismatchThrows) {
  MetricsRegistry reg;
  Histogram* h = reg.histogram("rtt_us", 0.0, 100.0, 10);
  EXPECT_EQ(h, reg.histogram("rtt_us", 0.0, 100.0, 10));  // same shape: fine
  EXPECT_THROW(reg.histogram("rtt_us", 0.0, 200.0, 10), ConfigError);
  EXPECT_THROW(reg.histogram("rtt_us", 0.0, 100.0, 20), ConfigError);
}

TEST(MetricsSnapshot, SortedByNameAndMergeSemantics) {
  MetricsRegistry a;
  a.counter("z.late")->inc(1);
  a.counter("a.early")->inc(2);
  a.gauge("peak")->set(3.0);
  a.histogram("h", 0.0, 10.0, 2)->observe(1.0);

  MetricsRegistry b;
  b.counter("a.early")->inc(10);
  b.counter("m.only_b")->inc(7);
  b.gauge("peak")->set(9.0);
  b.histogram("h", 0.0, 10.0, 2)->observe(6.0);

  auto sa = a.snapshot();
  ASSERT_EQ(sa.counters.size(), 2u);
  EXPECT_EQ(sa.counters.begin()->first, "a.early");  // sorted
  EXPECT_EQ(sa.counters.rbegin()->first, "z.late");

  sa.merge(b.snapshot());
  ASSERT_EQ(sa.counters.size(), 3u);
  auto it = sa.counters.begin();
  EXPECT_EQ(it->first, "a.early");
  EXPECT_EQ(it->second.value, 12u);  // counters add
  ++it;
  EXPECT_EQ(it->first, "m.only_b");  // names only in `other` join in order
  EXPECT_EQ(it->second.value, 7u);
  EXPECT_EQ(sa.counters.at("z.late").value, 1u);
  ASSERT_EQ(sa.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(sa.gauges.at("peak").value, 9.0);  // gauges keep the max
  ASSERT_EQ(sa.histograms.size(), 1u);
  const Histogram& h = sa.histograms.at("h");
  EXPECT_EQ(h.count, 2u);  // histograms add bucket-wise
  EXPECT_EQ(h.bins[0], 1u);
  EXPECT_EQ(h.bins[1], 1u);
  EXPECT_DOUBLE_EQ(h.sum, 7.0);
  EXPECT_DOUBLE_EQ(h.max, 6.0);
}

TEST(MetricsSnapshot, MergeMismatchedHistogramShapeKeepsFirst) {
  MetricsRegistry a, b;
  a.histogram("h", 0.0, 10.0, 2)->observe(1.0);
  b.histogram("h", 0.0, 20.0, 4)->observe(15.0);
  auto sa = a.snapshot();
  sa.merge(b.snapshot());
  ASSERT_EQ(sa.histograms.size(), 1u);
  EXPECT_EQ(sa.histograms.at("h").bins.size(), 2u);
  EXPECT_EQ(sa.histograms.at("h").count, 1u);
}

// Hand-filled [100, 200) x 10 histogram: 10 underflows, 80 in bin 2
// ([120, 130)), 10 overflows up to an exact max of 250.
TEST(Percentiles, InterpolatesInBinAndResolvesTheTails) {
  Histogram h{100.0, 200.0, 10};
  h.underflow = 10;
  h.bins[2] = 80;
  h.overflow = 10;
  h.count = 100;
  h.max = 250.0;
  const Percentiles p = percentiles(h);
  EXPECT_DOUBLE_EQ(p.p50, 125.0);  // rank 50: 40th of 80 in [120, 130)
  EXPECT_DOUBLE_EQ(p.p90, 130.0);  // rank 90: the bin's last sample
  EXPECT_DOUBLE_EQ(p.p99, 250.0);  // rank 99: overflow -> exact max
  EXPECT_DOUBLE_EQ(p.max, 250.0);

  h.underflow = 60;  // rank 50 now falls in the underflow region
  h.bins[2] = 30;
  EXPECT_DOUBLE_EQ(percentiles(h).p50, 100.0);  // resolves to lo

  // A lone sample early in a wide bin reports the exact max, not the
  // bin's upper edge.
  Histogram lone{0.0, 100.0, 2};
  lone.observe(3.0);
  const Percentiles q = percentiles(lone);
  EXPECT_DOUBLE_EQ(q.p50, 3.0);
  EXPECT_DOUBLE_EQ(q.p99, 3.0);
  EXPECT_DOUBLE_EQ(q.max, 3.0);

  // The clamp holds at a max of 0 too: all-zero observations report 0,
  // not a position inside the first bin.
  Histogram zeros{0.0, 500.0, 250};
  for (int i = 0; i < 3; ++i) zeros.observe(0.0);
  EXPECT_EQ(percentiles(zeros).p50, 0.0);
  EXPECT_EQ(percentiles(zeros).p99, 0.0);

  const Percentiles empty = percentiles(Histogram{0.0, 1.0, 4});
  EXPECT_EQ(empty.p50, 0.0);
  EXPECT_EQ(empty.p90, 0.0);
  EXPECT_EQ(empty.p99, 0.0);
  EXPECT_EQ(empty.max, 0.0);
}

TEST(SubjectId, StableAndDistinguishesNames) {
  constexpr std::uint32_t a = subject_id("switch->client");
  static_assert(a == subject_id("switch->client"));
  EXPECT_NE(subject_id("a->b"), subject_id("b->a"));
}

TEST(FlightRecorder, CountsWithoutRing) {
  FlightRecorder rec;
  EXPECT_FALSE(rec.ring_enabled());
  rec.emit(sim::SimTime::millis(1), EventKind::kRtoFired, 7, 1.0, 2.0);
  rec.emit(sim::SimTime::millis(2), EventKind::kRtoFired, 7);
  EXPECT_EQ(rec.count(EventKind::kRtoFired), 2u);
  EXPECT_EQ(rec.total_emitted(), 2u);
  EXPECT_EQ(rec.size(), 0u);  // nothing retained: ring is off
}

TEST(FlightRecorder, RingOverwritesOldestWhenFull) {
  FlightRecorder rec;
  rec.enable(3);
  for (int i = 0; i < 5; ++i) {
    rec.emit(sim::SimTime::millis(i), EventKind::kLinkEnqueued,
             static_cast<std::uint32_t>(i), i, 0.0);
  }
  EXPECT_EQ(rec.total_emitted(), 5u);
  ASSERT_EQ(rec.size(), 3u);
  // Oldest-first snapshot holds the 3 most recent events: subjects 2, 3, 4.
  EXPECT_EQ(rec.event(0).subject, 2u);
  EXPECT_EQ(rec.event(1).subject, 3u);
  EXPECT_EQ(rec.event(2).subject, 4u);
  const auto all = rec.events();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all.front().subject, 2u);
  EXPECT_EQ(all.back().subject, 4u);
}

TEST(FlightRecorder, EventsByKindAndClear) {
  FlightRecorder rec;
  rec.enable(8);
  rec.emit(sim::SimTime::millis(1), EventKind::kRtoArmed, 1);
  rec.emit(sim::SimTime::millis(2), EventKind::kFastRetransmit, 1, 42.0, 8.0);
  rec.emit(sim::SimTime::millis(3), EventKind::kRtoArmed, 1);
  const auto armed = rec.events(EventKind::kRtoArmed);
  ASSERT_EQ(armed.size(), 2u);
  EXPECT_EQ(armed[0].at, sim::SimTime::millis(1));
  const auto fr = rec.events(EventKind::kFastRetransmit);
  ASSERT_EQ(fr.size(), 1u);
  EXPECT_DOUBLE_EQ(fr[0].a, 42.0);

  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.count(EventKind::kRtoArmed), 0u);
  EXPECT_TRUE(rec.ring_enabled());  // capacity survives clear()
}

TEST(EventCounts, MergeAddsPerKind) {
  EventCounts a, b;
  a.by_kind[static_cast<std::size_t>(EventKind::kRtoFired)] = 2;
  b.by_kind[static_cast<std::size_t>(EventKind::kRtoFired)] = 3;
  b.by_kind[static_cast<std::size_t>(EventKind::kTrimGapDetected)] = 1;
  a.merge(b);
  EXPECT_EQ(a[EventKind::kRtoFired], 5u);
  EXPECT_EQ(a[EventKind::kTrimGapDetected], 1u);
  EXPECT_EQ(a.total(), 6u);
}

TEST(EventKindNames, AllKindsHaveDottedNames) {
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    const std::string name = to_string(static_cast<EventKind>(k));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name.find('.'), std::string::npos) << name;
  }
}

TEST(Profiler, ScopedTimerAccumulatesCallsAndItems) {
  Profiler prof;
  {
    ScopedTimer t{prof, "phase.a"};
    t.add_items(9);
  }
  { ScopedTimer t{prof, "phase.a"}; }
  { ScopedTimer t{prof, "phase.b"}; }
  const auto snap = prof.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "phase.a");  // sorted by name
  EXPECT_EQ(snap[0].calls, 2u);
  EXPECT_EQ(snap[0].items, 11u);  // each timer counts 1 + 9 extra
  EXPECT_EQ(snap[1].name, "phase.b");
  prof.clear();
  EXPECT_TRUE(prof.snapshot().empty());
}

TEST(Profiler, ThreadSafeAdds) {
  Profiler prof;
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([&prof] {
      for (int i = 0; i < 1000; ++i) prof.add("contended", 1, 1);
    });
  }
  for (auto& th : pool) th.join();
  const auto snap = prof.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].calls, 4000u);
  EXPECT_EQ(snap[0].wall_ns, 4000u);
}

}  // namespace
}  // namespace trim::obs
