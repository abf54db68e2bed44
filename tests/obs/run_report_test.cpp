// Run-report schema and write-path tests, plus the REPRO_JOBS merge
// determinism contract: the deterministic sections of a report built from
// a parallel sweep must be identical at any pool width.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "exp/concurrency_scenario.hpp"
#include "exp/experiment.hpp"
#include "exp/parallel_runner.hpp"
#include "obs/run_report.hpp"

namespace trim::obs {
namespace {

RunReport sample_report(bool with_perf = true) {
  RunReport report{"unit"};
  report.add_scalar("goodput_mbps", 941.5);
  FlowSummary fs;
  fs.flow = 3;
  fs.protocol = "trim";
  fs.completion_s = 0.125;
  fs.retransmits = 2;
  report.add_flow(fs);
  report.add_row("point_a", {{"act_ms", 1.25}, {"timeouts", 0.0}});
  if (with_perf) report.add_perf("point_a_batch", 12.5, {{"wall_seconds", 0.75}});

  TelemetrySnapshot tele;
  MetricsRegistry reg;
  reg.counter("tcp.segments_sent")->inc(10);
  tele.metrics = reg.snapshot();
  tele.events.by_kind[static_cast<std::size_t>(EventKind::kTrimProbeEnter)] = 4;
  report.set_telemetry(std::move(tele));
  report.set_profile({{"sweep.job", 2, 1234, 2}});
  return report;
}

// Removes top-level keys from a report: a scalar key's line, or an array
// section from its opening line through its closing bracket.
std::string strip(std::string s, std::initializer_list<const char*> keys) {
  for (const char* key : keys) {
    const auto pos = s.find(std::string{"\n  \""} + key + "\": ");
    if (pos == std::string::npos) continue;
    auto end = s.find('\n', pos + 1);
    if (s.compare(end - 1, 1, "[") == 0) end = s.find('\n', s.find("\n  ]", end) + 1);
    s.erase(pos + 1, end - pos);
  }
  return s;
}

// peak_rss_bytes legitimately differs between two to_json() calls (the
// process peak can rise in between); strip that line before comparing
// reports.
std::string strip_rss(std::string s) { return strip(std::move(s), {"peak_rss_bytes"}); }

double peak_rss_in(const std::string& json) {
  const auto pos = json.find("\"peak_rss_bytes\": ");
  return pos == std::string::npos ? -1.0 : std::strtod(json.c_str() + pos + 18, nullptr);
}

TEST(RunReport, JsonCarriesEverySection) {
  const std::string json = sample_report().to_json();
  EXPECT_NE(json.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"report\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"quick\":"), std::string::npos);
  EXPECT_GT(peak_rss_in(json), 0.0);
  EXPECT_NE(json.find("\"hw_threads\": "), std::string::npos);
  EXPECT_NE(json.find("\"goodput_mbps\": 941.5"), std::string::npos);
  EXPECT_NE(json.find("\"tcp.segments_sent\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"trim.probe_enter\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"flows_truncated\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"protocol\": \"trim\""), std::string::npos);
  EXPECT_NE(json.find("\"scenario\": \"point_a\""), std::string::npos);
  EXPECT_NE(json.find("\"act_ms\": 1.25"), std::string::npos);
  EXPECT_NE(json.find("\"perf\": [\n    {\"scenario\": \"point_a_batch\", "
                      "\"items_per_sec\": 12.5, \"wall_seconds\": 0.75}"),
            std::string::npos);
  EXPECT_NE(json.find("\"phase\": \"sweep.job\""), std::string::npos);
  // Wall-clock sections follow every deterministic one.
  EXPECT_LT(json.find("\"rows\":"), json.find("\"perf\":"));
  EXPECT_LT(json.find("\"perf\":"), json.find("\"profile\":"));
}

// Perf rows are wall-clock numbers: adding them must leave every
// deterministic part of the report untouched.
TEST(RunReport, PerfRowsStayOutOfDeterministicSections) {
  const std::initializer_list<const char*> wall_clock{"perf", "profile",
                                                      "peak_rss_bytes", "hw_threads"};
  const std::string with = strip(sample_report(true).to_json(), wall_clock);
  const std::string without = strip(sample_report(false).to_json(), wall_clock);
  EXPECT_EQ(with, without);
  EXPECT_EQ(with.find("items_per_sec"), std::string::npos);
  EXPECT_NE(with.find("\"rows\": ["), std::string::npos);
}

TEST(RunReport, ZeroCountEventsAreOmitted) {
  const std::string json = sample_report().to_json();
  EXPECT_EQ(json.find("\"rto.fired\""), std::string::npos);
  EXPECT_EQ(json.find("\"link.enqueued\""), std::string::npos);
}

TEST(RunReport, FlowCapTruncatesAndCounts) {
  RunReport report{"cap"};
  for (std::size_t i = 0; i < RunReport::kMaxFlows + 10; ++i) {
    FlowSummary fs;
    fs.flow = static_cast<std::uint32_t>(i);
    report.add_flow(fs);
  }
  EXPECT_EQ(report.flows_truncated(), 10u);
  EXPECT_NE(report.to_json().find("\"flows_truncated\": 10"), std::string::npos);
}

TEST(RunReport, WriteHonorsBenchJsonDir) {
  char tmpl[] = "/tmp/trim_report_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  ::setenv("BENCH_JSON_DIR", tmpl, 1);
  const std::string path = sample_report().write();
  ::unsetenv("BENCH_JSON_DIR");
  ASSERT_EQ(path, std::string{tmpl} + "/REPORT_unit.json");
  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(strip_rss(buf.str()), strip_rss(sample_report().to_json()));
  std::remove(path.c_str());
  std::remove(tmpl);
}

TEST(RunReport, WriteToUnwritableDirReturnsEmptyNotThrow) {
  ::setenv("BENCH_JSON_DIR", "/nonexistent/dir", 1);
  EXPECT_EQ(sample_report().write(), "");
  ::unsetenv("BENCH_JSON_DIR");
}

// The child half of PeakRssIsThisProcessNotTheLauncher: that test
// re-executes this binary with kRssChildEnv set, and only then does this
// one check anything.
constexpr const char* kRssChildEnv = "RUN_REPORT_TEST_RSS_CHILD";
constexpr double kMiB = 1024.0 * 1024.0;

TEST(RunReport, PeakRssChildReportsItsOwnPeak) {
  if (std::getenv(kRssChildEnv) == nullptr) return;  // not re-executed
  const double rss = peak_rss_in(sample_report().to_json());
  EXPECT_GT(rss, 0.0);
  EXPECT_LT(rss, 256.0 * kMiB);
}

// A report's peak RSS must be its own process's. Linux carries the
// getrusage(RUSAGE_SELF) peak across execve, so a bench launched by a
// larger process (a Python driver holding a big heap) would report the
// launcher's peak.
TEST(RunReport, PeakRssIsThisProcessNotTheLauncher) {
  const std::size_t ballast_bytes = std::size_t{512} << 20;
  std::vector<char> ballast(ballast_bytes);
  std::memset(ballast.data(), 1, ballast.size());
  asm volatile("" : : "r"(ballast.data()) : "memory");  // keep the pages touched
  ASSERT_GE(peak_rss_bytes(), static_cast<double>(ballast_bytes));

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::setenv(kRssChildEnv, "1", 1);
    ::execl("/proc/self/exe", "/proc/self/exe",
            "--gtest_filter=RunReport.PeakRssChildReportsItsOwnPeak", nullptr);
    ::_exit(127);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "the re-executed child reported the launcher's peak";
}

// Same sweep, pool width 1 vs 4: telemetry merged in submission order
// must produce identical metrics and event counts (the "profile" section
// is the only nondeterministic part of a report, and it is not merged
// here).
TEST(RunReport, ParallelMergeIsDeterministicAcrossJobWidths) {
  std::vector<exp::ConcurrencyConfig> cfgs;
  for (int spts : {2, 3}) {
    exp::ConcurrencyConfig cfg;
    cfg.protocol = tcp::Protocol::kTrim;
    cfg.num_spt_servers = spts;
    cfg.num_lpt_servers = 1;
    cfg.seed = 42 + static_cast<std::uint64_t>(spts);
    cfgs.push_back(cfg);
  }

  auto merged_json = [&](int jobs) {
    std::vector<exp::ConcurrencyResult> results(cfgs.size());
    exp::for_each_index(cfgs.size(), jobs, [&](std::size_t i) {
      results[i] = exp::run_concurrency(cfgs[i]);
    });
    TelemetrySnapshot tele;
    for (const auto& r : results) tele.merge(r.telemetry);
    RunReport report{"determinism"};
    report.set_telemetry(std::move(tele));
    return report.to_json();
  };

  const auto serial = merged_json(1);
  const auto pooled = merged_json(4);
  EXPECT_EQ(strip_rss(serial), strip_rss(pooled));
  EXPECT_NE(serial.find("\"tcp.segments_sent\""), std::string::npos);
  EXPECT_NE(serial.find("\"trim.probe_enter\""), std::string::npos);
}

}  // namespace
}  // namespace trim::obs
