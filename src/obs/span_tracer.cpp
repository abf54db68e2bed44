#include "obs/span_tracer.hpp"

#include <bit>

namespace trim::obs {

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kConnection: return "connection";
    case SpanKind::kHandshake: return "handshake";
    case SpanKind::kSlowStart: return "slow_start";
    case SpanKind::kProbe: return "probe";
    case SpanKind::kRto: return "rto";
    case SpanKind::kTimeWait: return "time_wait";
  }
  return "?";
}

SpanTracer::SpanTracer(std::size_t max_spans) : max_spans_{max_spans} {
  spans_.reserve(max_spans_ < 1024 ? max_spans_ : 1024);
}

std::uint64_t SpanTracer::kind_mask() {
  return kind_bit(EventKind::kConnSynSent) |
         kind_bit(EventKind::kConnEstablished) |
         kind_bit(EventKind::kConnClosed) |
         kind_bit(EventKind::kTrimProbeEnter) |
         kind_bit(EventKind::kTrimProbeTimeout) |
         kind_bit(EventKind::kTrimResumeEq1) |
         kind_bit(EventKind::kTrimQueueCutEq3) |
         kind_bit(EventKind::kFastRetransmit) |
         kind_bit(EventKind::kRtoArmed) |
         kind_bit(EventKind::kRtoFired) |
         kind_bit(EventKind::kConnTimeWaitEnter) |
         kind_bit(EventKind::kConnTimeWaitExpire);
}

std::uint32_t SpanTracer::open_span(SpanKind kind, std::uint32_t flow,
                                    std::uint32_t parent, sim::SimTime at) {
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return 0;
  }
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size()) + 1;
  s.parent = parent;
  s.kind = kind;
  s.flow = flow;
  s.begin = at;
  s.end = at;
  spans_.push_back(s);
  return s.id;
}

void SpanTracer::close_span(std::uint32_t& slot, sim::SimTime at, bool complete) {
  if (Span* s = span(slot)) {
    s->end = at;
    s->complete = complete;
  }
  slot = 0;
}

SpanTracer::FlowState& SpanTracer::flow_state(std::uint32_t flow,
                                              sim::SimTime at) {
  auto [it, fresh] = flows_.try_emplace(flow);
  if (fresh) {
    // Lazy root: pre-established flows (the throughput scenarios skip the
    // handshake) still get a connection span covering their lifetime.
    it->second.connection = open_span(SpanKind::kConnection, flow, 0, at);
  }
  return it->second;
}

void SpanTracer::on_event(const RecordedEvent& e) {
  FlowState& f = flow_state(e.subject, e.at);
  switch (e.kind) {
    case EventKind::kConnSynSent:
      // Active opens only; the passive side's SYN-ACK is part of the same
      // handshake, not a second one.
      if (e.a == 0.0 && f.handshake == 0) {
        f.handshake = open_span(SpanKind::kHandshake, e.subject, f.connection,
                                e.at);
      }
      break;
    case EventKind::kConnEstablished:
      if (Span* s = span(f.handshake)) s->a = e.a;  // setup latency s
      close_span(f.handshake, e.at);
      if (f.slow_start == 0) {
        f.slow_start = open_span(SpanKind::kSlowStart, e.subject, f.connection,
                                 e.at);
      }
      break;
    case EventKind::kTrimProbeEnter:
      close_span(f.slow_start, e.at);
      if (f.probe == 0) {
        f.probe = open_span(SpanKind::kProbe, e.subject, f.connection, e.at);
        if (Span* s = span(f.probe)) s->a = e.a;  // saved cwnd
      }
      break;
    case EventKind::kTrimResumeEq1:
    case EventKind::kTrimProbeTimeout:
      if (Span* s = span(f.probe)) s->b = e.a;  // resumed cwnd
      close_span(f.probe, e.at);
      break;
    case EventKind::kTrimQueueCutEq3:
      close_span(f.slow_start, e.at);
      break;
    case EventKind::kFastRetransmit:
      close_span(f.slow_start, e.at);
      break;
    case EventKind::kRtoFired:
      close_span(f.slow_start, e.at);
      if (f.rto == 0) {
        f.rto = open_span(SpanKind::kRto, e.subject, f.connection, e.at);
        if (Span* s = span(f.rto)) s->a = e.a;  // backoff exponent
      }
      if (Span* s = span(f.rto)) s->b += 1.0;  // fires within the span
      break;
    case EventKind::kRtoArmed:
      // Backoff back at zero means recovery finished; a fresh arm with a
      // nonzero exponent is still inside the same recovery episode.
      if (e.b == 0.0 && f.rto != 0) close_span(f.rto, e.at);
      break;
    case EventKind::kConnTimeWaitEnter:
      if (f.time_wait == 0) {
        f.time_wait = open_span(SpanKind::kTimeWait, e.subject, f.connection,
                                e.at);
        if (Span* s = span(f.time_wait)) s->a = e.a;  // dwell s
      }
      break;
    case EventKind::kConnTimeWaitExpire:
      close_span(f.time_wait, e.at);
      break;
    case EventKind::kConnClosed: {
      close_span(f.handshake, e.at, /*complete=*/false);
      close_span(f.slow_start, e.at);
      close_span(f.probe, e.at, /*complete=*/false);
      close_span(f.rto, e.at, /*complete=*/false);
      // TIME_WAIT outlives kConnClosed; leave it to its expiry event.
      if (Span* s = span(f.connection)) s->a = e.a;  // 1 graceful / 0 abort
      close_span(f.connection, e.at);
      break;
    }
    default:
      break;
  }
}

void SpanTracer::finalize(sim::SimTime at) {
  for (auto& [flow, f] : flows_) {
    close_span(f.handshake, at, /*complete=*/false);
    close_span(f.slow_start, at, /*complete=*/false);
    close_span(f.probe, at, /*complete=*/false);
    close_span(f.rto, at, /*complete=*/false);
    close_span(f.time_wait, at, /*complete=*/false);
    close_span(f.connection, at, /*complete=*/false);
  }
}

namespace {

// FNV-1a over the span's order-independent identity (no span ids — those
// depend on event arrival order across shards).
std::uint64_t span_hash(const Span& s) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(s.kind));
  mix(s.flow);
  mix(static_cast<std::uint64_t>(s.begin.ns()));
  mix(static_cast<std::uint64_t>(s.end.ns()));
  mix(std::bit_cast<std::uint64_t>(s.a));
  mix(std::bit_cast<std::uint64_t>(s.b));
  return h;
}

}  // namespace

SpanStats SpanTracer::stats() const {
  SpanStats st;
  st.dropped = dropped_;
  for (const auto& s : spans_) {
    ++st.by_kind[static_cast<std::size_t>(s.kind)];
    if (s.complete) {
      ++st.completed;
      st.digest ^= span_hash(s);
    }
  }
  return st;
}

}  // namespace trim::obs
