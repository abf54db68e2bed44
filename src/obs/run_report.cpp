#include "obs/run_report.hpp"

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "sim/logging.hpp"

namespace trim::obs {

namespace {

std::string num(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string num(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  return buf;
}

bool quick_env() {
  const char* env = std::getenv("REPRO_QUICK");
  return env != nullptr && env[0] == '1';
}

}  // namespace

std::string report_output_dir() {
  if (const char* env = std::getenv("BENCH_JSON_DIR")) return env;
  // A gitignored output directory instead of the (possibly tracked)
  // working directory.
  return "bench_out";
}

double peak_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  double kib = 0.0;
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib * 1024.0;
}

void RunReport::add_flow(FlowSummary flow) {
  if (flows_.size() >= kMaxFlows) {
    if (flows_truncated_ == 0) {
      sim::log_message(sim::LogLevel::kWarn, 0.0,
                       "run report %s: per-flow summaries capped at %zu; "
                       "further flows are counted in flows_truncated",
                       name_.c_str(), kMaxFlows);
    }
    ++flows_truncated_;
    return;
  }
  flows_.push_back(std::move(flow));
}

std::string RunReport::to_json() const {
  std::string out = "{\n";
  out += "  \"schema_version\": 2,\n";
  out += "  \"report\": \"" + name_ + "\",\n";
  out += std::string{"  \"quick\": "} + (quick_env() ? "true" : "false") + ",\n";
  out += "  \"peak_rss_bytes\": " + num(peak_rss_bytes()) + ",\n";
  out += "  \"hw_threads\": " +
         num(static_cast<std::uint64_t>(std::thread::hardware_concurrency())) + ",\n";

  out += "  \"scalars\": {";
  for (std::size_t i = 0; i < scalars_.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    \"" + scalars_[i].first + "\": " + num(scalars_[i].second);
  }
  out += scalars_.empty() ? "},\n" : "\n  },\n";

  out += "  \"metrics\": " + telemetry_.metrics.to_json(2, 1) + ",\n";

  out += "  \"events\": {";
  bool first = true;
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    const std::uint64_t n = telemetry_.events.by_kind[k];
    if (n == 0) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += std::string{"    \""} + to_string(static_cast<EventKind>(k)) +
           "\": " + num(n);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"episodes\": [";
  for (std::size_t i = 0; i < telemetry_.episodes.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    append_episode_json(out, telemetry_.episodes[i]);
  }
  out += telemetry_.episodes.empty() ? "],\n" : "\n  ],\n";

  out += "  \"flows_truncated\": " + num(static_cast<std::uint64_t>(flows_truncated_)) + ",\n";
  out += "  \"flows\": [";
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const auto& f = flows_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"flow\": " + num(static_cast<std::uint64_t>(f.flow)) +
           ", \"protocol\": \"" + f.protocol +
           "\", \"goodput_mbps\": " + num(f.goodput_mbps) +
           ", \"completion_s\": " + num(f.completion_s) +
           ", \"retransmits\": " + num(f.retransmits) +
           ", \"timeouts\": " + num(f.timeouts) + "}";
  }
  out += flows_.empty() ? "],\n" : "\n  ],\n";

  // "rows" and "perf" share one row shape: {"scenario": ..., key: value...}.
  auto append_rows = [&out](const char* section, const std::vector<Row>& rows) {
    out += std::string{"  \""} + section + "\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      out += i == 0 ? "\n" : ",\n";
      out += "    {\"scenario\": \"" + r.scenario + "\"";
      for (const auto& [k, v] : r.values) {
        out += ", \"" + k + "\": " + num(v);
      }
      out += "}";
    }
    out += rows.empty() ? "],\n" : "\n  ],\n";
  };
  append_rows("rows", rows_);
  append_rows("perf", perf_);

  out += "  \"profile\": [";
  for (std::size_t i = 0; i < profile_.size(); ++i) {
    const auto& p = profile_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"phase\": \"" + p.name + "\", \"calls\": " + num(p.calls) +
           ", \"wall_ns\": " + num(p.wall_ns) + ", \"items\": " + num(p.items) +
           "}";
  }
  out += profile_.empty() ? "]\n" : "\n  ]\n";

  out += "}\n";
  return out;
}

std::string RunReport::write() const {
  const std::string dir = report_output_dir();
  ::mkdir(dir.c_str(), 0755);  // EEXIST is fine; open errors handled below
  const std::string path = dir + "/REPORT_" + name_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    sim::log_message(sim::LogLevel::kWarn, 0.0,
                     "run report: cannot open %s for writing", path.c_str());
    return {};
  }
  const std::string json = to_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  if (!ok) {
    sim::log_message(sim::LogLevel::kWarn, 0.0, "run report: short write to %s",
                     path.c_str());
    return {};
  }
  return path;
}

}  // namespace trim::obs
