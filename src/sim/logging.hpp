// Warnings from simulation components.
//
// There is one level: a warning is something a run's owner should see
// (an unroutable packet, a report or trace that could not be written).
// Facts a run records as a matter of course go to counters and
// obs::emit, not here. Messages are printf-style formatted with
// std::snprintf.
//
// The output target is a pluggable LogSink: the default writes
// "[t=...s] [WARN] message" to stderr, tests install a capturing sink
// (CaptureLogSink) to assert on warnings without scraping process output.
#pragma once

#include <string>
#include <vector>

namespace trim::sim {

// Destination for formatted warnings. write() receives the final message
// text (no trailing newline); the sim time comes separately so sinks can
// re-format.
class LogSink {
 public:
  virtual ~LogSink() = default;
  virtual void write(double sim_time_s, const std::string& message) = 0;
};

// Install `sink` as the process-wide warning target; returns the previous
// sink so callers can restore it. Passing nullptr restores the built-in
// stderr sink. The caller keeps ownership of `sink` and must keep it
// alive while installed.
LogSink* set_log_sink(LogSink* sink);

// In-memory sink for tests: installs itself on construction and restores
// the previous sink on destruction.
class CaptureLogSink : public LogSink {
 public:
  struct Record {
    double sim_time_s;
    std::string message;
  };

  CaptureLogSink() : previous_{set_log_sink(this)} {}
  ~CaptureLogSink() override { set_log_sink(previous_); }
  CaptureLogSink(const CaptureLogSink&) = delete;
  CaptureLogSink& operator=(const CaptureLogSink&) = delete;

  void write(double sim_time_s, const std::string& message) override {
    records_.push_back({sim_time_s, message});
  }

  const std::vector<Record>& records() const { return records_; }
  bool contains(const std::string& needle) const {
    for (const auto& r : records_) {
      if (r.message.find(needle) != std::string::npos) return true;
    }
    return false;
  }
  void clear() { records_.clear(); }

 private:
  LogSink* previous_;
  std::vector<Record> records_;
};

// Formats one warning and hands it to the installed sink (stderr by
// default). `sim_time_s` is the simulation time it refers to, 0 when it
// belongs to no simulated instant.
void warn(double sim_time_s, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

}  // namespace trim::sim
