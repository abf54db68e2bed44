// Span tracer unit tests: lifecycle assembly from synthetic event
// streams, parent/child causality, payload capture, finalize semantics,
// drop accounting, and the order-independence of the stats digest.
#include <gtest/gtest.h>

#include <vector>

#include "obs/span_tracer.hpp"

namespace trim::obs {
namespace {

RecordedEvent ev(double t, EventKind kind, std::uint32_t subject,
                 double a = 0.0, double b = 0.0) {
  return RecordedEvent{sim::SimTime::seconds(t), kind, subject, a, b};
}

const Span* find_span(const SpanTracer& tracer, SpanKind kind,
                      std::uint32_t flow) {
  for (const auto& s : tracer.spans()) {
    if (s.kind == kind && s.flow == flow) return &s;
  }
  return nullptr;
}

std::size_t count_kind(const SpanTracer& tracer, SpanKind kind) {
  std::size_t n = 0;
  for (const auto& s : tracer.spans()) {
    if (s.kind == kind) ++n;
  }
  return n;
}

// The full healthy lifecycle of one flow: handshake, slow start, a TRIM
// probe episode, an RTO recovery, graceful close, TIME_WAIT.
std::vector<RecordedEvent> full_lifecycle(std::uint32_t flow) {
  return {
      ev(0.10, EventKind::kConnSynSent, flow, /*a=*/0.0),
      ev(0.15, EventKind::kConnEstablished, flow, /*a=*/0.05, /*b=*/0.0),
      ev(0.30, EventKind::kTrimProbeEnter, flow, /*a=*/10.0, /*b=*/2.0),
      ev(0.32, EventKind::kTrimResumeEq1, flow, /*a=*/6.0, /*b=*/0.0002),
      ev(0.50, EventKind::kRtoFired, flow, /*a=*/0.0),
      ev(0.70, EventKind::kRtoFired, flow, /*a=*/1.0),
      ev(0.80, EventKind::kRtoArmed, flow, /*a=*/0.2, /*b=*/0.0),
      ev(1.00, EventKind::kConnTimeWaitEnter, flow, /*a=*/0.1),
      ev(1.00, EventKind::kConnClosed, flow, /*a=*/1.0),
      ev(1.10, EventKind::kConnTimeWaitExpire, flow),
  };
}

TEST(SpanTracer, AssemblesFullLifecycle) {
  SpanTracer tracer;
  for (const auto& e : full_lifecycle(7)) tracer.on_event(e);

  // One span of every kind, all complete.
  ASSERT_EQ(tracer.spans().size(), 6u);
  for (const auto& s : tracer.spans()) {
    EXPECT_TRUE(s.complete) << to_string(s.kind);
    EXPECT_EQ(s.flow, 7u);
  }

  const Span* conn = find_span(tracer, SpanKind::kConnection, 7);
  ASSERT_NE(conn, nullptr);
  EXPECT_EQ(conn->parent, 0u);
  EXPECT_DOUBLE_EQ(conn->begin.to_seconds(), 0.10);
  EXPECT_DOUBLE_EQ(conn->end.to_seconds(), 1.00);
  EXPECT_DOUBLE_EQ(conn->a, 1.0);  // graceful

  const Span* hs = find_span(tracer, SpanKind::kHandshake, 7);
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->parent, conn->id);
  EXPECT_DOUBLE_EQ(hs->begin.to_seconds(), 0.10);
  EXPECT_DOUBLE_EQ(hs->end.to_seconds(), 0.15);
  EXPECT_DOUBLE_EQ(hs->a, 0.05);  // setup latency rides on the span

  const Span* ss = find_span(tracer, SpanKind::kSlowStart, 7);
  ASSERT_NE(ss, nullptr);
  EXPECT_EQ(ss->parent, conn->id);
  EXPECT_DOUBLE_EQ(ss->begin.to_seconds(), 0.15);
  EXPECT_DOUBLE_EQ(ss->end.to_seconds(), 0.30);  // ends at probe enter

  const Span* probe = find_span(tracer, SpanKind::kProbe, 7);
  ASSERT_NE(probe, nullptr);
  EXPECT_EQ(probe->parent, conn->id);
  EXPECT_DOUBLE_EQ(probe->begin.to_seconds(), 0.30);
  EXPECT_DOUBLE_EQ(probe->end.to_seconds(), 0.32);
  EXPECT_DOUBLE_EQ(probe->a, 10.0);  // saved cwnd
  EXPECT_DOUBLE_EQ(probe->b, 6.0);   // resumed (Eq. 1) cwnd

  const Span* rto = find_span(tracer, SpanKind::kRto, 7);
  ASSERT_NE(rto, nullptr);
  EXPECT_EQ(rto->parent, conn->id);
  EXPECT_DOUBLE_EQ(rto->begin.to_seconds(), 0.50);
  EXPECT_DOUBLE_EQ(rto->end.to_seconds(), 0.80);
  EXPECT_DOUBLE_EQ(rto->a, 0.0);  // backoff exponent at first fire
  EXPECT_DOUBLE_EQ(rto->b, 2.0);  // two fires inside the span

  const Span* tw = find_span(tracer, SpanKind::kTimeWait, 7);
  ASSERT_NE(tw, nullptr);
  EXPECT_EQ(tw->parent, conn->id);
  EXPECT_DOUBLE_EQ(tw->begin.to_seconds(), 1.00);
  EXPECT_DOUBLE_EQ(tw->end.to_seconds(), 1.10);
  EXPECT_DOUBLE_EQ(tw->a, 0.1);  // configured dwell
}

TEST(SpanTracer, PassiveSynDoesNotOpenASecondHandshake) {
  SpanTracer tracer;
  tracer.on_event(ev(0.1, EventKind::kConnSynSent, 3, /*a=*/1.0));  // SYN-ACK
  tracer.on_event(ev(0.2, EventKind::kConnEstablished, 3, /*a=*/0.1));
  // The passive side still gets a connection root and a slow-start span,
  // but no handshake span (that belongs to the active opener).
  EXPECT_EQ(count_kind(tracer, SpanKind::kHandshake), 0u);
  EXPECT_EQ(count_kind(tracer, SpanKind::kConnection), 1u);
  EXPECT_EQ(count_kind(tracer, SpanKind::kSlowStart), 1u);
}

TEST(SpanTracer, ProbeTimeoutClosesProbeWithResumeCwnd) {
  SpanTracer tracer;
  tracer.on_event(ev(0.1, EventKind::kTrimProbeEnter, 5, /*a=*/12.0));
  tracer.on_event(ev(0.3, EventKind::kTrimProbeTimeout, 5, /*a=*/2.0,
                     /*b=*/12.0));
  const Span* probe = find_span(tracer, SpanKind::kProbe, 5);
  ASSERT_NE(probe, nullptr);
  EXPECT_TRUE(probe->complete);
  EXPECT_DOUBLE_EQ(probe->a, 12.0);
  EXPECT_DOUBLE_EQ(probe->b, 2.0);  // fell back to the minimum window
}

TEST(SpanTracer, RearmWithNonzeroBackoffStaysInsideRecovery) {
  SpanTracer tracer;
  tracer.on_event(ev(0.1, EventKind::kRtoFired, 4, /*a=*/0.0));
  // Re-armed mid-backoff: still the same recovery episode.
  tracer.on_event(ev(0.2, EventKind::kRtoArmed, 4, /*a=*/0.4, /*b=*/1.0));
  tracer.on_event(ev(0.3, EventKind::kRtoFired, 4, /*a=*/1.0));
  tracer.on_event(ev(0.5, EventKind::kRtoArmed, 4, /*a=*/0.2, /*b=*/0.0));
  ASSERT_EQ(count_kind(tracer, SpanKind::kRto), 1u);
  const Span* rto = find_span(tracer, SpanKind::kRto, 4);
  EXPECT_TRUE(rto->complete);
  EXPECT_DOUBLE_EQ(rto->end.to_seconds(), 0.5);
  EXPECT_DOUBLE_EQ(rto->b, 2.0);
}

TEST(SpanTracer, FinalizeClosesOpenSpansAsIncomplete) {
  SpanTracer tracer;
  tracer.on_event(ev(0.1, EventKind::kConnSynSent, 9, /*a=*/0.0));
  tracer.finalize(sim::SimTime::seconds(2.0));
  ASSERT_EQ(tracer.spans().size(), 2u);  // connection + handshake
  for (const auto& s : tracer.spans()) {
    EXPECT_FALSE(s.complete);
    EXPECT_DOUBLE_EQ(s.end.to_seconds(), 2.0);
  }
  // Incomplete spans never enter the digest.
  EXPECT_EQ(tracer.stats().completed, 0u);
  EXPECT_EQ(tracer.stats().digest, 0u);
  EXPECT_EQ(tracer.stats().total(), 2u);
}

TEST(SpanTracer, AbortiveCloseLeavesInterruptedSpansIncomplete) {
  SpanTracer tracer;
  tracer.on_event(ev(0.1, EventKind::kConnSynSent, 2, /*a=*/0.0));
  tracer.on_event(ev(0.15, EventKind::kConnEstablished, 2, /*a=*/0.05));
  tracer.on_event(ev(0.2, EventKind::kRtoFired, 2, /*a=*/0.0));
  tracer.on_event(ev(0.4, EventKind::kConnClosed, 2, /*a=*/0.0));  // abort
  const Span* conn = find_span(tracer, SpanKind::kConnection, 2);
  ASSERT_NE(conn, nullptr);
  EXPECT_TRUE(conn->complete);
  EXPECT_DOUBLE_EQ(conn->a, 0.0);
  // The RTO recovery never finished; the close cut it short.
  const Span* rto = find_span(tracer, SpanKind::kRto, 2);
  ASSERT_NE(rto, nullptr);
  EXPECT_FALSE(rto->complete);
  // Slow start ended *because* the connection ended: complete.
  const Span* ss = find_span(tracer, SpanKind::kSlowStart, 2);
  ASSERT_NE(ss, nullptr);
  EXPECT_TRUE(ss->complete);
}

TEST(SpanTracer, MaxSpansDropsNewSpansButClosesOpenOnes) {
  SpanTracer tracer{2};  // room for connection + handshake only
  for (const auto& e : full_lifecycle(1)) tracer.on_event(e);
  EXPECT_EQ(tracer.spans().size(), 2u);
  EXPECT_GT(tracer.dropped(), 0u);
  const Span* hs = find_span(tracer, SpanKind::kHandshake, 1);
  ASSERT_NE(hs, nullptr);
  EXPECT_TRUE(hs->complete);  // capped tracer still closes what it opened
  EXPECT_EQ(tracer.stats().dropped, tracer.dropped());
}

TEST(SpanTracer, StatsDigestIsOrderIndependentAcrossFlows) {
  // The same two-flow event multiset, delivered grouped-by-flow vs
  // interleaved (as two shards' streams would arrive) — identical stats.
  const auto flow1 = full_lifecycle(1);
  const auto flow2 = full_lifecycle(2);

  SpanTracer grouped;
  for (const auto& e : flow1) grouped.on_event(e);
  for (const auto& e : flow2) grouped.on_event(e);

  SpanTracer interleaved;
  for (std::size_t i = 0; i < flow1.size(); ++i) {
    interleaved.on_event(flow2[i]);
    interleaved.on_event(flow1[i]);
  }

  const SpanStats a = grouped.stats();
  const SpanStats b = interleaved.stats();
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.by_kind, b.by_kind);
  EXPECT_NE(a.digest, 0u);

  // And merging per-flow stats (the sharded path) matches the single
  // tracer that saw everything.
  SpanTracer only1, only2;
  for (const auto& e : flow1) only1.on_event(e);
  for (const auto& e : flow2) only2.on_event(e);
  SpanStats merged = only1.stats();
  merged.merge(only2.stats());
  EXPECT_EQ(merged.digest, a.digest);
  EXPECT_EQ(merged.completed, a.completed);
  EXPECT_EQ(merged.by_kind, a.by_kind);
}

}  // namespace
}  // namespace trim::obs
