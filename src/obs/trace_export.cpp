#include "obs/trace_export.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/flight_recorder.hpp"
#include "obs/run_report.hpp"
#include "obs/span_tracer.hpp"
#include "sim/logging.hpp"

namespace trim::obs {

bool trace_enabled() {
  const char* env = std::getenv("TRIM_TRACE");
  return env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
}

std::string trace_dir() {
  const char* env = std::getenv("TRIM_TRACE");
  if (env == nullptr || env[0] == '\0' || std::strcmp(env, "0") == 0 ||
      std::strcmp(env, "1") == 0) {
    return report_output_dir();
  }
  return env;
}

namespace {

bool idle(const TraceShard& s) {
  return (s.tracer == nullptr || s.tracer->spans().empty()) &&
         (s.recorder == nullptr || s.recorder->size() == 0);
}

// One formatted JSON value, returned by value so that a call can sit in a
// printf argument list.
struct Field {
  char text[32];
};

// A simulated time or duration (never negative) as microseconds with
// three decimals. No floating point on the way, so instants 1 ns apart
// stay distinct at any run length.
Field micros(sim::SimTime t) {
  Field f;
  std::snprintf(f.text, sizeof f.text, "%lld.%03lld",
                static_cast<long long>(t.ns() / 1000),
                static_cast<long long>(t.ns() % 1000));
  return f;
}

// Shortest text that reads back as the same double; JSON has no inf/nan.
Field number(double v) {
  Field f;
  if (!std::isfinite(v)) {
    std::strcpy(f.text, "null");
  } else {
    *std::to_chars(f.text, f.text + sizeof f.text - 1, v).ptr = '\0';
  }
  return f;
}

}  // namespace

std::string to_chrome_trace(const std::vector<TraceShard>& shards) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char rec[512];  // one record: names and Fields are short, so it fits
  const auto emit = [&out, &first, &rec] {
    out += first ? "\n" : ",\n";
    first = false;
    out += rec;
  };
  for (std::size_t pid = 0; pid < shards.size(); ++pid) {
    const TraceShard& shard = shards[pid];
    if (idle(shard)) continue;
    std::snprintf(rec, sizeof rec,
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%zu,"
                  "\"args\":{\"name\":\"shard%zu\"}}",
                  pid, pid);
    emit();
    if (shard.tracer != nullptr) {
      for (const Span& s : shard.tracer->spans()) {
        std::snprintf(
            rec, sizeof rec,
            "{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":%s,"
            "\"dur\":%s,\"pid\":%zu,\"tid\":%u,\"args\":{\"id\":%u,"
            "\"parent\":%u,\"a\":%s,\"b\":%s,\"complete\":%s}}",
            to_string(s.kind), micros(s.begin).text,
            micros(s.end - s.begin).text, pid, s.flow, s.id, s.parent,
            number(s.a).text, number(s.b).text,
            s.complete ? "true" : "false");
        emit();
      }
    }
    if (shard.recorder != nullptr) {
      for (std::size_t k = 0; k < shard.recorder->size(); ++k) {
        const RecordedEvent& e = shard.recorder->event(k);
        std::snprintf(rec, sizeof rec,
                      "{\"name\":\"%s\",\"cat\":\"event\",\"ph\":\"i\","
                      "\"s\":\"t\",\"ts\":%s,\"pid\":%zu,\"tid\":%u,"
                      "\"args\":{\"a\":%s,\"b\":%s}}",
                      to_string(e.kind), micros(e.at).text, pid, e.subject,
                      number(e.a).text, number(e.b).text);
        emit();
      }
    }
  }
  out += first ? "" : "\n";
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string write_chrome_trace(const std::vector<TraceShard>& shards) {
  if (std::all_of(shards.begin(), shards.end(), idle)) return {};
  const std::string body = to_chrome_trace(shards);
  static std::atomic<std::uint32_t> seq{0};
  const std::uint32_t n = seq.fetch_add(1, std::memory_order_relaxed);
  const std::string dir = trace_dir();
  ::mkdir(dir.c_str(), 0755);  // EEXIST is fine
  const std::string path = dir + "/TRACE_" + std::to_string(n) + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    sim::warn(0.0, "trace export: cannot open %s for writing", path.c_str());
    return {};
  }
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  if (std::fclose(f) != 0 || !ok) {
    sim::warn(0.0, "trace export: short write to %s", path.c_str());
    return {};
  }
  return path;
}

}  // namespace trim::obs
