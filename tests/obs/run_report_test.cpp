// Run-report schema and write-path tests, plus the REPRO_JOBS merge
// determinism contract: the deterministic sections of a report built from
// a parallel sweep must be identical at any pool width.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "exp/concurrency_scenario.hpp"
#include "exp/experiment.hpp"
#include "exp/parallel_runner.hpp"
#include "obs/run_report.hpp"

namespace trim::obs {
namespace {

RunReport sample_report() {
  RunReport report{"unit"};
  report.add_scalar("goodput_mbps", 941.5);
  FlowSummary fs;
  fs.flow = 3;
  fs.protocol = "trim";
  fs.completion_s = 0.125;
  fs.retransmits = 2;
  report.add_flow(fs);
  report.add_row("point_a", {{"act_ms", 1.25}, {"timeouts", 0.0}});

  TelemetrySnapshot tele;
  MetricsRegistry reg;
  reg.counter("tcp.segments_sent")->inc(10);
  tele.metrics = reg.snapshot();
  tele.events.by_kind[static_cast<std::size_t>(EventKind::kTrimProbeEnter)] = 4;
  report.set_telemetry(std::move(tele));
  report.set_profile({{"sweep.job", 2, 1234, 2}});
  return report;
}

// peak_rss_bytes legitimately differs between two to_json() calls (the
// process peak can rise in between); strip that single line before
// comparing reports.
std::string strip_rss(std::string s) {
  const auto pos = s.find("\"peak_rss_bytes\"");
  const auto end = s.find('\n', pos);
  s.erase(pos, end - pos);
  return s;
}

TEST(RunReport, JsonCarriesEverySection) {
  const std::string json = sample_report().to_json();
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"report\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"quick\":"), std::string::npos);
  EXPECT_NE(json.find("\"peak_rss_bytes\":"), std::string::npos);
  EXPECT_NE(json.find("\"goodput_mbps\": 941.5"), std::string::npos);
  EXPECT_NE(json.find("\"tcp.segments_sent\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"trim.probe_enter\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"flows_truncated\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"protocol\": \"trim\""), std::string::npos);
  EXPECT_NE(json.find("\"scenario\": \"point_a\""), std::string::npos);
  EXPECT_NE(json.find("\"act_ms\": 1.25"), std::string::npos);
  EXPECT_NE(json.find("\"phase\": \"sweep.job\""), std::string::npos);
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

TEST(RunReport, WriteHonorsReportJsonDir) {
  char tmpl[] = "/tmp/trim_report_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  ::setenv("REPORT_JSON_DIR", tmpl, 1);
  const std::string path = sample_report().write();
  ::unsetenv("REPORT_JSON_DIR");
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
  ::setenv("REPORT_JSON_DIR", "/nonexistent/dir", 1);
  EXPECT_EQ(sample_report().write(), "");
  ::unsetenv("REPORT_JSON_DIR");
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
