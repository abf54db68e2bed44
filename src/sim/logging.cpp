#include "sim/logging.hpp"

#include <cstdarg>
#include <cstdio>
#include <mutex>

#include "sim/time.hpp"

namespace trim::sim {

namespace {
class StderrLogSink : public LogSink {
 public:
  void write(double sim_time_s, const std::string& message) override {
    std::fprintf(stderr, "[t=%.9fs] [WARN] %s\n", sim_time_s, message.c_str());
  }
};

StderrLogSink g_stderr_sink;
LogSink* g_sink = &g_stderr_sink;
// Shard workers (sim/sharded_engine.hpp) warn concurrently; serialize the
// format-and-write so records never interleave mid-line.
std::mutex g_sink_mutex;
}  // namespace

LogSink* set_log_sink(LogSink* sink) {
  LogSink* previous = g_sink;
  g_sink = sink != nullptr ? sink : &g_stderr_sink;
  // Report the built-in sink as nullptr so restoring a saved "previous"
  // value round-trips cleanly through the nullptr-means-default contract.
  return previous == &g_stderr_sink ? nullptr : previous;
}

void warn(double sim_time_s, const char* fmt, ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  const std::lock_guard<std::mutex> lock{g_sink_mutex};
  g_sink->write(sim_time_s, buf);
}

std::string SimTime::to_string() const {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.9fs", to_seconds());
  return buf;
}

}  // namespace trim::sim
