// Trace export: one Chrome trace-event file per traced run.
//
// The TRIM_TRACE knob turns tracing on. exp::World's destructor then
// hands its shards' span tracers and flight-recorder rings to
// write_chrome_trace(), which writes the whole run as one TRACE_<seq>.json
// into trace_dir():
//   unset / "0"  tracing off (the default; zero overhead)
//   "1"          write next to REPORT_*.json (report_output_dir())
//   <path>       write into <path>
//
// The file loads as-is in Perfetto (ui.perfetto.dev) or chrome://tracing.
// One record per line:
//   - one process per shard that recorded a span or an event: pid = shard
//     index, named shard<i> by a "process_name" metadata ("M") record;
//   - every span (span_tracer.hpp) is an "X" complete slice on tid = flow;
//   - every retained ring event (events.hpp) is an "i" instant on
//     tid = subject.
// ts and dur are simulated microseconds, printed exactly from the integer
// nanosecond SimTime with three decimals.
#pragma once

#include <string>
#include <vector>

namespace trim::obs {

class FlightRecorder;
class SpanTracer;

// TRIM_TRACE, read fresh on every call (tests flip it mid-process).
bool trace_enabled();
std::string trace_dir();

// What one shard recorded; either pointer may be null.
struct TraceShard {
  const SpanTracer* tracer = nullptr;
  const FlightRecorder* recorder = nullptr;
};

// The Chrome trace-event document for one run; shards[i] becomes pid i.
// Shards with no span and no retained event get no process. Always a
// valid document, even with nothing to show.
std::string to_chrome_trace(const std::vector<TraceShard>& shards);

// Writes to_chrome_trace(shards) to TRACE_<seq>.json in trace_dir() (seq =
// atomic per-process counter, so repeated and concurrent runs never
// clobber each other). Returns the path, or "" when no shard recorded
// anything or the write failed (warned, never fatal).
std::string write_chrome_trace(const std::vector<TraceShard>& shards);

}  // namespace trim::obs
