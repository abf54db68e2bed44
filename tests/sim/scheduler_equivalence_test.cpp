// Property test: the calendar-queue wheel dispatches exactly what the 4-ary
// heap reference (sim/heap_event_queue.hpp) dispatches. Each case drives
// the same deterministic workload through both side by side and asserts
// the dispatch sequences — (time, which-event) pairs, not just times —
// match exactly: same-time ties, cancellations (pending, fired, and
// recycled-slot stale), mid-callback scheduling, run_until boundaries, and
// a paper-scale fig. 8 event mix all behave the same.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/calendar_queue.hpp"
#include "sim/heap_event_queue.hpp"
#include "sim/simulator.hpp"

namespace trim::sim {
namespace {

// Deterministic PCG-style generator (same LCG the engine benches use).
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : x_{seed} {}
  std::uint64_t next() {
    x_ = x_ * 6364136223846793005ull + 1442695040888963407ull;
    return x_ >> 33;
  }

 private:
  std::uint64_t x_;
};

// One scripted operation, applied to both queues in lockstep.
struct Op {
  enum Kind { kPush, kCancel, kPop } kind;
  std::int64_t at = 0;    // kPush: absolute nanoseconds
  std::size_t target = 0;  // kCancel: index into the ids pushed so far
};

// Generate a schedule/cancel/pop script. Times are drawn from a small
// window so same-time collisions are common (the tie-break is the point),
// and cancel targets deliberately include already-fired and already-
// cancelled ids (stale handles must be no-ops on both queues).
std::vector<Op> make_script(std::uint64_t seed, int rounds) {
  Lcg rnd{seed};
  std::vector<Op> ops;
  std::size_t pushed = 0;
  for (int i = 0; i < rounds; ++i) {
    const auto roll = rnd.next() % 10;
    if (roll < 5 || pushed == 0) {
      // Mix of dense near-term times (collisions) and far-out times
      // (higher wheel levels, cascades).
      const bool far = rnd.next() % 8 == 0;
      const auto at = far ? static_cast<std::int64_t>(rnd.next() % 3'000'000'000)
                          : static_cast<std::int64_t>(rnd.next() % 4'096);
      ops.push_back({Op::kPush, at, 0});
      ++pushed;
    } else if (roll < 8) {
      ops.push_back({Op::kCancel, 0, rnd.next() % pushed});
    } else {
      ops.push_back({Op::kPop, 0, 0});
    }
  }
  return ops;
}

// Replay `ops` against a fresh `Queue`; events are identified by their
// push ordinal so the trace captures *which* event fired, not just when.
// Returns the dispatch trace plus the surviving (drained) tail.
template <class Queue>
std::vector<std::pair<std::int64_t, std::size_t>> replay(const std::vector<Op>& ops) {
  Queue q;
  std::vector<EventId> ids;
  std::vector<std::pair<std::int64_t, std::size_t>> trace;
  std::size_t next_ordinal = 0;
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kPush: {
        const std::size_t ordinal = next_ordinal++;
        ids.push_back(q.push(SimTime::nanos(op.at), [&trace, ordinal] {
          trace.back().second = ordinal;
        }));
        break;
      }
      case Op::kCancel:
        q.cancel(ids[op.target]);  // possibly stale: must be a no-op
        break;
      case Op::kPop:
        if (!q.empty()) {
          auto popped = q.pop();
          trace.emplace_back(popped.at.ns(), 0);
          popped.cb();
        }
        break;
    }
  }
  while (!q.empty()) {
    auto popped = q.pop();
    trace.emplace_back(popped.at.ns(), 0);
    popped.cb();
  }
  EXPECT_EQ(q.size(), 0u);
  return trace;
}

TEST(SchedulerEquivalence, RandomScriptsDispatchIdentically) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const auto ops = make_script(seed * 0x9e3779b97f4a7c15ull, 4000);
    const auto heap_trace = replay<HeapEventQueue>(ops);
    const auto wheel_trace = replay<CalendarQueue>(ops);
    ASSERT_EQ(heap_trace, wheel_trace) << "seed " << seed;
  }
}

// Same-time ties under interleaved cancellation: all events collapse onto
// a handful of timestamps, so insertion-sequence order is the only thing
// distinguishing a correct trace from a wrong one.
TEST(SchedulerEquivalence, DenseTieStormDispatchesIdentically) {
  Lcg rnd{424242};
  std::vector<Op> ops;
  std::size_t pushed = 0;
  for (int i = 0; i < 3000; ++i) {
    const auto roll = rnd.next() % 4;
    if (roll != 0 || pushed == 0) {
      ops.push_back({Op::kPush, static_cast<std::int64_t>(rnd.next() % 4), 0});
      ++pushed;
    } else {
      ops.push_back({Op::kCancel, 0, rnd.next() % pushed});
    }
  }
  EXPECT_EQ(replay<HeapEventQueue>(ops), replay<CalendarQueue>(ops));
}

// The fig. 8-shaped event mix at paper scale, with no TCP stack: `flows`
// senders each keep a window of in-flight packet events plus one RTO
// timer. Every dispatch is replaced by an event one RTT out (ACK
// clocking) and re-arms a pseudo-random flow's RTO (cancel + push, the
// per-ACK timer pattern), so ~21 events per flow stay pending. Returns an
// FNV-1a digest of the (time, push ordinal) dispatch sequence and the
// final queue size.
template <class Queue>
std::uint64_t fig08_mix_digest(int flows, std::uint64_t dispatches) {
  constexpr int kWindow = 20;
  Queue q;
  Lcg rnd{0x2545F4914F6CDD1Dull ^ static_cast<std::uint64_t>(flows)};
  std::uint64_t next_ordinal = 0;
  std::uint64_t fired = 0;
  auto push = [&](std::int64_t at) {
    const std::uint64_t ordinal = next_ordinal++;
    return q.push(SimTime::nanos(at), [&fired, ordinal] { fired = ordinal; });
  };
  std::vector<EventId> rto(static_cast<std::size_t>(flows));
  for (auto& timer : rto) {
    for (int w = 0; w < kWindow; ++w) {
      push(1000 + static_cast<std::int64_t>(rnd.next() % 100'000));
    }
    timer = push(10'000'000 + static_cast<std::int64_t>(rnd.next() % 1'000'000));
  }
  std::uint64_t digest = 1469598103934665603ull;
  auto mix = [&digest](std::uint64_t v) { digest = (digest ^ v) * 1099511628211ull; };
  for (std::uint64_t done = 0; done < dispatches; ++done) {
    auto ev = q.pop();
    ev.cb();
    const std::int64_t now = ev.at.ns();
    mix(static_cast<std::uint64_t>(now));
    mix(fired);
    push(now + 100'000 + static_cast<std::int64_t>(rnd.next() & 0xffff));
    // The cancelled id may already have fired: a no-op in both queues.
    auto& timer = rto[rnd.next() % rto.size()];
    q.cancel(timer);
    timer = push(now + 10'000'000 + static_cast<std::int64_t>(rnd.next() % 1'000'000));
  }
  mix(q.size());
  return digest;
}

TEST(SchedulerEquivalence, Fig08MixAtPaperScaleDispatchesIdentically) {
  // 4200 flows x 21 pending events ~ 88 k pending: the scale of the
  // paper's largest fig. 8 run, where the wheel's bucketing, cascades and
  // spare-storage pool are all live.
  constexpr int kFlows = 4200;
  constexpr std::uint64_t kDispatches = 200'000;
  EXPECT_EQ(fig08_mix_digest<CalendarQueue>(kFlows, kDispatches),
            fig08_mix_digest<HeapEventQueue>(kFlows, kDispatches));
}

// The reference side of the lockstep world test: Simulator's clock
// semantics over the heap, written out as a plain loop.
class ReferenceSim {
 public:
  SimTime now() const { return now_; }
  EventId schedule(SimTime delay, InlineCallback cb) {
    return queue_.push(now_ + std::max(delay, SimTime::zero()), std::move(cb));
  }
  void cancel(EventId id) { queue_.cancel(id); }
  std::uint64_t run_until(SimTime until) {
    std::uint64_t n = 0;
    while (!queue_.empty() && queue_.next_time() <= until) {
      auto [at, cb] = queue_.pop();
      now_ = at;
      cb();
      ++n;
    }
    if (now_ < until) now_ = until;
    return n;
  }

 private:
  HeapEventQueue queue_;
  SimTime now_;
};

// Full-simulator property: a Simulator world and a reference world run the
// same self-scheduling workload (events reschedule themselves, cancel
// timers, and schedule at the current time) and must tick through
// identical (now, ordinal) histories — including across run_until
// boundaries, where events exactly at the boundary run and later ones hold.
template <class Sim>
class TickWorld {
 public:
  void start() {
    // Three interleaved periodic chains with colliding periods plus an
    // RTO-style timer that is forever cancelled and re-armed.
    arm_chain(0, SimTime::micros(3));
    arm_chain(1, SimTime::micros(5));
    arm_chain(2, SimTime::micros(15));
    rearm_rto();
  }

  std::uint64_t run_until(SimTime until) { return sim_.run_until(until); }
  const std::vector<std::pair<std::int64_t, int>>& history() const {
    return history_;
  }
  SimTime now() const { return sim_.now(); }

 private:
  void arm_chain(int id, SimTime period) {
    sim_.schedule(period, [this, id, period] {
      history_.emplace_back(sim_.now().ns(), id);
      // Every chain tick re-arms the shared RTO: the cancel/re-push churn
      // is exactly the pattern fig08-class runs hammer the scheduler with.
      rearm_rto();
      if (id == 0 && history_.size() % 7 == 0) {
        // Occasionally spawn a same-time event: must run this tick, after
        // everything already queued for `now`.
        sim_.schedule(SimTime::zero(),
                      [this] { history_.emplace_back(sim_.now().ns(), 100); });
      }
      arm_chain(id, period);
    });
  }

  void rearm_rto() {
    sim_.cancel(rto_);
    rto_ = sim_.schedule(SimTime::millis(10), [this] {
      history_.emplace_back(sim_.now().ns(), 999);  // RTO actually fired
    });
  }

  Sim sim_;
  EventId rto_;
  std::vector<std::pair<std::int64_t, int>> history_;
};

TEST(SchedulerEquivalence, SimulatorWorldsTickIdentically) {
  TickWorld<ReferenceSim> heap_world;
  TickWorld<Simulator> wheel_world;
  heap_world.start();
  wheel_world.start();
  // Advance both worlds in uneven slices; boundary events (run_until is
  // inclusive) must land in the same slice on both.
  const SimTime cuts[] = {SimTime::micros(15), SimTime::micros(16),
                          SimTime::micros(300), SimTime::millis(2),
                          SimTime::millis(2), SimTime::millis(25)};
  for (const auto cut : cuts) {
    const auto heap_n = heap_world.run_until(cut);
    const auto wheel_n = wheel_world.run_until(cut);
    EXPECT_EQ(heap_n, wheel_n);
    EXPECT_EQ(heap_world.now(), wheel_world.now());
    ASSERT_EQ(heap_world.history(), wheel_world.history());
  }
  EXPECT_FALSE(heap_world.history().empty());
}

}  // namespace
}  // namespace trim::sim
