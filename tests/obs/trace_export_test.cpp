// Trace export: the TRIM_TRACE knob, the Chrome trace-event writer (record
// shapes, exact timestamps, one record per span and per retained event),
// and the one TRACE_<seq>.json file a traced World writes at teardown.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/sender_factory.hpp"
#include "exp/experiment.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/span_tracer.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_export.hpp"
#include "tcp/flow.hpp"
#include "topo/many_to_one.hpp"
#include "topo/partition.hpp"
#include "topo/two_tier.hpp"

namespace trim::obs {
namespace {

namespace fs = std::filesystem;

class TraceEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (const char* old = std::getenv("TRIM_TRACE")) saved_ = old;
    unsetenv("TRIM_TRACE");
  }
  void TearDown() override {
    if (saved_.empty()) {
      unsetenv("TRIM_TRACE");
    } else {
      setenv("TRIM_TRACE", saved_.c_str(), 1);
    }
    if (!scratch_.empty()) fs::remove_all(scratch_);
  }

  // A fresh directory, removed at teardown.
  std::string scratch_dir() {
    char tmpl[] = "/tmp/trace_export_test_XXXXXX";
    EXPECT_NE(mkdtemp(tmpl), nullptr);
    scratch_ = tmpl;
    return scratch_;
  }

 private:
  std::string saved_;
  std::string scratch_;
};

// The records of a trace document, one per line, without the framing
// lines and the separating commas; fails the test if the frame is off.
std::vector<std::string> records_of(const std::string& doc) {
  std::vector<std::string> lines;
  std::istringstream in{doc};
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  EXPECT_GE(lines.size(), 2u);
  if (lines.size() < 2) return {};
  EXPECT_EQ(lines.front(), "{\"traceEvents\":[");
  EXPECT_EQ(lines.back(), "],\"displayTimeUnit\":\"ms\"}");
  std::vector<std::string> records(lines.begin() + 1, lines.end() - 1);
  for (std::size_t i = 0; i < records.size(); ++i) {
    std::string& r = records[i];
    if (i + 1 < records.size()) {
      EXPECT_EQ(r.back(), ',') << r;
      r.pop_back();
    }
    EXPECT_EQ(r.front(), '{') << r;
    EXPECT_EQ(r.back(), '}') << r;
  }
  return records;
}

std::size_t count_phase(const std::vector<std::string>& records,
                        std::string_view ph) {
  const std::string needle = "\"ph\":\"" + std::string{ph} + "\"";
  std::size_t n = 0;
  for (const auto& r : records) n += r.find(needle) != std::string::npos;
  return n;
}

std::string read_file(const fs::path& path) {
  std::ifstream in{path};
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// TRACE_<seq>.json
bool is_trace_name(const fs::path& path) {
  const std::string name = path.filename().string();
  if (name.rfind("TRACE_", 0) != 0 || path.extension() != ".json") return false;
  const std::string seq = path.stem().string().substr(6);
  return !seq.empty() &&
         seq.find_first_not_of("0123456789") == std::string::npos;
}

std::vector<fs::path> trace_files(const std::string& dir) {
  std::vector<fs::path> out;
  if (!fs::exists(dir)) return out;
  for (const auto& entry : fs::directory_iterator{dir}) {
    out.push_back(entry.path());
  }
  return out;
}

TEST_F(TraceEnvTest, KnobParsing) {
  EXPECT_FALSE(trace_enabled());  // unset
  setenv("TRIM_TRACE", "0", 1);
  EXPECT_FALSE(trace_enabled());
  setenv("TRIM_TRACE", "", 1);
  EXPECT_FALSE(trace_enabled());
  setenv("TRIM_TRACE", "1", 1);
  EXPECT_TRUE(trace_enabled());
  setenv("TRIM_TRACE", "/tmp/somewhere", 1);
  EXPECT_TRUE(trace_enabled());
  EXPECT_EQ(trace_dir(), "/tmp/somewhere");
}

TEST_F(TraceEnvTest, WriteCreatesSequencedFilesInTraceDir) {
  const std::string dir = scratch_dir() + "/traces";  // not yet created
  setenv("TRIM_TRACE", dir.c_str(), 1);

  FlightRecorder rec;
  rec.enable(4);
  // Nothing recorded: no file.
  EXPECT_EQ(write_chrome_trace({{nullptr, &rec}}), "");
  EXPECT_TRUE(trace_files(dir).empty());

  rec.emit(sim::SimTime::millis(1), EventKind::kRtoFired, 3);
  const std::string p1 = write_chrome_trace({{nullptr, &rec}});
  const std::string p2 = write_chrome_trace({{nullptr, &rec}});
  ASSERT_FALSE(p1.empty());
  ASSERT_FALSE(p2.empty());
  EXPECT_NE(p1, p2);
  for (const auto& p : {p1, p2}) {
    EXPECT_EQ(fs::path{p}.parent_path(), fs::path{dir}) << p;
    EXPECT_TRUE(is_trace_name(p)) << p;
    EXPECT_EQ(read_file(p), to_chrome_trace({{nullptr, &rec}}));
  }
  EXPECT_EQ(trace_files(dir).size(), 2u);
}

TEST(ChromeTrace, SpansBecomeDurationsAndEventsInstants) {
  SpanTracer tracer;
  tracer.on_event({sim::SimTime::millis(1), EventKind::kConnSynSent, 5, 0, 0});
  tracer.on_event({sim::SimTime::millis(3), EventKind::kConnEstablished, 5,
                   0.002, 0});
  FlightRecorder rec;
  rec.enable(4);
  rec.emit(sim::SimTime::millis(2), EventKind::kBacklogDrop, 42, 0.0, 1.0);

  const std::string out =
      to_chrome_trace({{&tracer, nullptr}, {nullptr, &rec}});
  const auto records = records_of(out);

  // One process per shard, pid = shard index, named after it.
  EXPECT_NE(out.find("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
                     "\"args\":{\"name\":\"shard0\"}}"),
            std::string::npos);
  EXPECT_NE(out.find("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                     "\"args\":{\"name\":\"shard1\"}}"),
            std::string::npos);
  // The handshake: a complete "X" slice on tid = flow, microsecond units.
  EXPECT_NE(out.find("{\"name\":\"handshake\",\"cat\":\"span\",\"ph\":\"X\","
                     "\"ts\":1000.000,\"dur\":2000.000,\"pid\":0,\"tid\":5,"
                     "\"args\":{\"id\":2,\"parent\":1,\"a\":0.002,\"b\":0,"
                     "\"complete\":true}}"),
            std::string::npos);
  // The event: an instant on tid = subject in the second process.
  EXPECT_NE(out.find("{\"name\":\"conn.backlog_drop\",\"cat\":\"event\","
                     "\"ph\":\"i\",\"s\":\"t\",\"ts\":2000.000,\"pid\":1,"
                     "\"tid\":42,\"args\":{\"a\":0,\"b\":1}}"),
            std::string::npos);
  EXPECT_EQ(count_phase(records, "M"), 2u);
  EXPECT_EQ(count_phase(records, "X"), tracer.spans().size());
  EXPECT_EQ(count_phase(records, "i"), 1u);
}

TEST(ChromeTrace, EmptyInputStillYieldsValidSchema) {
  EXPECT_EQ(to_chrome_trace({}),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}\n");
  // Idle shards get no process at all.
  SpanTracer tracer;
  FlightRecorder rec;
  rec.enable(4);
  EXPECT_EQ(to_chrome_trace({{&tracer, &rec}, {nullptr, nullptr}}),
            to_chrome_trace({}));
}

TEST(ChromeTrace, EverySpanAndRetainedEventIsOneRecord) {
  SpanTracer tracer;
  const auto at = [](double t) { return sim::SimTime::seconds(t); };
  tracer.on_event({at(0.10), EventKind::kConnSynSent, 7, 0.0, 0.0});
  tracer.on_event({at(0.15), EventKind::kConnEstablished, 7, 0.05, 0.0});
  tracer.on_event({at(0.40), EventKind::kTrimProbeEnter, 7, 12.0, 2.0});
  tracer.on_event({at(0.45), EventKind::kTrimResumeEq1, 7, 6.0, 0.0});
  tracer.on_event({at(0.90), EventKind::kConnClosed, 7, 1.0, 0.0});
  // A wrapped ring: only the newest four of six events are retained.
  FlightRecorder rec;
  rec.enable(4);
  for (int i = 0; i < 6; ++i) {
    rec.emit(sim::SimTime::millis(i), EventKind::kRtoArmed, 9, i, 0.0);
  }
  ASSERT_EQ(rec.size(), 4u);

  const std::size_t spans = tracer.spans().size();
  ASSERT_EQ(spans, 4u);  // connection, handshake, slow_start, probe
  const auto records = records_of(to_chrome_trace({{&tracer, &rec}}));
  EXPECT_EQ(count_phase(records, "M"), 1u);
  EXPECT_EQ(count_phase(records, "X"), spans);
  EXPECT_EQ(count_phase(records, "i"), rec.size());
  ASSERT_EQ(records.size(), 1 + spans + rec.size());
  // Spans in id order, then the ring oldest first: the two overwritten
  // events are gone, so the instants run from t = 2 ms to 5 ms.
  for (std::size_t i = 0; i < spans; ++i) {
    EXPECT_EQ(records[1 + i].rfind(std::string{"{\"name\":\""} +
                                       to_string(tracer.spans()[i].kind) + "\"",
                                   0),
              0u)
        << records[1 + i];
  }
  EXPECT_NE(records[1 + spans].find("\"ts\":2000.000,"), std::string::npos);
  EXPECT_NE(records.back().find("\"ts\":5000.000,"), std::string::npos);
}

TEST(ChromeTrace, TimestampsAreExactNanoseconds) {
  // Two events 48 ns apart at t ~ 12.3 s: nine significant digits of the
  // microsecond value would print both as 12345678.9.
  FlightRecorder rec;
  rec.enable(4);
  rec.emit(sim::SimTime::nanos(12'345'678'901), EventKind::kRtoFired, 1);
  rec.emit(sim::SimTime::nanos(12'345'678'949), EventKind::kRtoFired, 2);
  // A span starting at 123.456789012 s that lasts 500 ns; nine
  // significant digits would print its start as 123456789.
  SpanTracer tracer;
  tracer.on_event({sim::SimTime::nanos(123'456'789'012),
                   EventKind::kConnSynSent, 3, 0.0, 0.0});
  tracer.on_event({sim::SimTime::nanos(123'456'789'512),
                   EventKind::kConnEstablished, 3, 5e-7, 0.0});

  const std::string out = to_chrome_trace({{&tracer, &rec}});
  EXPECT_NE(out.find("\"ts\":12345678.901,\"pid\":0,\"tid\":1,"),
            std::string::npos);
  EXPECT_NE(out.find("\"ts\":12345678.949,\"pid\":0,\"tid\":2,"),
            std::string::npos);
  EXPECT_NE(out.find("{\"name\":\"handshake\",\"cat\":\"span\",\"ph\":\"X\","
                     "\"ts\":123456789.012,\"dur\":0.500,"),
            std::string::npos);
  EXPECT_NE(out.find("\"args\":{\"id\":2,\"parent\":1,\"a\":5e-07,"),
            std::string::npos);
}

// Everything a World's shards recorded, summed before teardown writes it.
struct Recorded {
  std::size_t spans = 0;
  std::size_t events = 0;
  std::size_t busy_shards = 0;
};

Recorded recorded(const exp::World& world) {
  Recorded r;
  for (const auto& t : world.shard_telemetry) {
    const std::size_t spans =
        t->tracer() != nullptr ? t->tracer()->spans().size() : 0;
    r.spans += spans;
    r.events += t->recorder().size();
    r.busy_shards += spans + t->recorder().size() > 0;
  }
  return r;
}

// Checks the one file a traced World left in `dir` against what it
// recorded: one process per busy shard, one record per span and event.
void expect_one_trace_file(const std::string& dir, const Recorded& r,
                           std::size_t processes) {
  const auto files = trace_files(dir);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_TRUE(is_trace_name(files[0])) << files[0];
  const auto records = records_of(read_file(files[0]));
  EXPECT_EQ(r.busy_shards, processes);
  EXPECT_EQ(count_phase(records, "M"), processes);
  EXPECT_EQ(count_phase(records, "X"), r.spans);
  EXPECT_EQ(count_phase(records, "i"), r.events);
  EXPECT_EQ(records.size(), processes + r.spans + r.events);
  EXPECT_GT(r.spans, 0u);
  EXPECT_GT(r.events, 0u);
}

// A small TRIM incast on a two-tier World partitioned over two shards,
// traced into whatever TRIM_TRACE names. Returns what the shards recorded.
Recorded trace_partitioned_two_tier() {
  exp::World world{2};
  for (const auto& t : world.shard_telemetry) {
    EXPECT_NE(t->tracer(), nullptr);
    EXPECT_EQ(t->recorder().capacity(), Telemetry::kTraceRingEvents);
  }
  topo::TwoTierConfig cfg;
  cfg.num_switches = 2;
  cfg.servers_per_switch = 2;
  const auto topo = build_two_tier(world.network, cfg);
  topo::shard_network(world.network, world.engine);
  const auto opts = exp::default_options(tcp::Protocol::kTrim, cfg.edge_bps,
                                         sim::SimTime::millis(200));
  std::vector<tcp::Flow> flows;
  for (const auto& rack : topo.servers) {
    for (net::Host* server : rack) {
      flows.push_back(core::make_protocol_flow(world.network, *server,
                                               *topo.front_end,
                                               tcp::Protocol::kTrim, opts));
      auto* sender = flows.back().sender.get();
      server->simulator()->schedule_at(sim::SimTime::millis(1),
                                       [sender] { sender->write(40'000); });
    }
  }
  world.run_until(sim::SimTime::millis(50));
  return recorded(world);
}

TEST_F(TraceEnvTest, PartitionedWorldWritesOneFileWithAProcessPerShard) {
  const std::string dir = scratch_dir();
  setenv("TRIM_TRACE", dir.c_str(), 1);
  const Recorded r = trace_partitioned_two_tier();
  expect_one_trace_file(dir, r, 2);
}

TEST_F(TraceEnvTest, RepeatedRunsWriteIdenticalFiles) {
  const std::string dir = scratch_dir();
  std::vector<std::string> bodies;
  for (const char* run : {"/a", "/b"}) {
    setenv("TRIM_TRACE", (dir + run).c_str(), 1);
    trace_partitioned_two_tier();
    const auto files = trace_files(dir + run);
    ASSERT_EQ(files.size(), 1u) << run;
    bodies.push_back(read_file(files[0]));
  }
  EXPECT_GT(bodies[0].size(), 100u);
  EXPECT_EQ(bodies[0], bodies[1]);
}

TEST_F(TraceEnvTest, UnpartitionedWorldWritesOneFileWithOneProcess) {
  const std::string dir = scratch_dir();
  setenv("TRIM_TRACE", dir.c_str(), 1);
  Recorded r;
  {
    exp::World world{4};
    topo::ManyToOneConfig cfg;
    cfg.num_servers = 3;
    const auto topo = build_many_to_one(world.network, cfg);
    const auto opts = exp::default_options(tcp::Protocol::kTrim, cfg.link_bps,
                                           sim::SimTime::millis(200));
    std::vector<tcp::Flow> flows;
    for (net::Host* server : topo.servers) {
      flows.push_back(core::make_protocol_flow(world.network, *server,
                                               *topo.front_end,
                                               tcp::Protocol::kTrim, opts));
      auto* sender = flows.back().sender.get();
      world.simulator.schedule_at(sim::SimTime::millis(1),
                                  [sender] { sender->write(40'000); });
    }
    world.simulator.run_until(sim::SimTime::millis(50));
    r = recorded(world);
  }
  expect_one_trace_file(dir, r, 1);
}

TEST_F(TraceEnvTest, UntracedWorldWritesNothing) {
  // A ring enabled in code is not tracing: no tracer, no file, not even
  // where TRIM_TRACE=1 would write.
  const std::string dir = scratch_dir();
  setenv("BENCH_JSON_DIR", dir.c_str(), 1);
  {
    exp::World world;
    EXPECT_EQ(world.telemetry.tracer(), nullptr);
    EXPECT_FALSE(world.telemetry.recorder().ring_enabled());
    world.telemetry.recorder().enable(8);
    obs::emit(&world.simulator, EventKind::kRtoFired, 1);
    EXPECT_EQ(world.telemetry.recorder().size(), 1u);
  }
  unsetenv("BENCH_JSON_DIR");
  EXPECT_TRUE(trace_files(dir).empty());
}

TEST(ChromeTrace, NonFinitePayloadsBecomeNull) {
  // JSON has no inf or nan; a payload that is one must not break the file.
  FlightRecorder rec;
  rec.enable(2);
  rec.emit(sim::SimTime::millis(1), EventKind::kTrimGapDetected, 4,
           std::numeric_limits<double>::infinity(),
           std::numeric_limits<double>::quiet_NaN());
  EXPECT_NE(to_chrome_trace({{nullptr, &rec}})
                .find("\"args\":{\"a\":null,\"b\":null}}"),
            std::string::npos);
}

}  // namespace
}  // namespace trim::obs
