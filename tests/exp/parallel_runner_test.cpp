#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "exp/concurrency_scenario.hpp"
#include "exp/experiment.hpp"
#include "exp/parallel_runner.hpp"
#include "sim/logging.hpp"

namespace trim::exp {
namespace {

TEST(ParallelRunner, ParseJobs) {
  EXPECT_EQ(parse_jobs(nullptr, 4), 4);
  EXPECT_EQ(parse_jobs("", 4), 4);
  EXPECT_EQ(parse_jobs("abc", 4), 4);
  EXPECT_EQ(parse_jobs("0", 4), 4);
  EXPECT_EQ(parse_jobs("-2", 4), 4);
  EXPECT_EQ(parse_jobs("1", 4), 1);
  EXPECT_EQ(parse_jobs("16", 4), 16);
}

TEST(ParallelRunner, RunsEveryIndexExactlyOnce) {
  for (const int jobs : {1, 2, 7}) {
    std::vector<std::atomic<int>> hits(100);
    for_each_index(hits.size(), jobs,
                   [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelRunner, ZeroTasksIsANoOp) {
  for_each_index(0, 8, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelRunner, ResultsComeBackInSubmissionOrder) {
  std::vector<int> configs(64);
  std::iota(configs.begin(), configs.end(), 0);
  const auto results =
      run_parallel(configs, [](const int& c) { return c * c; });
  ASSERT_EQ(results.size(), configs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], static_cast<int>(i * i));
  }
}

TEST(ParallelRunner, TaskExceptionIsRethrownOnCaller) {
  EXPECT_THROW(
      for_each_index(16, 4,
                     [](std::size_t i) {
                       if (i == 9) throw std::runtime_error{"boom"};
                     }),
      std::runtime_error);
}

// Failure containment: a throwing task must not take down its worker — on
// both the serial and the parallel path every other index still runs, and
// the failures come back sorted by index.
TEST(ParallelRunner, CollectRunsEveryIndexDespiteFailures) {
  for (const int jobs : {1, 4}) {
    std::vector<std::atomic<int>> hits(32);
    const auto failures =
        for_each_index_collect(hits.size(), jobs, [&](std::size_t i) {
          hits[i].fetch_add(1);
          if (i % 10 == 3) throw std::runtime_error{"job " + std::to_string(i)};
        });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "jobs=" << jobs;
    ASSERT_EQ(failures.size(), 3u) << "jobs=" << jobs;  // indices 3, 13, 23
    for (std::size_t k = 0; k < failures.size(); ++k) {
      EXPECT_EQ(failures[k].index, 3 + 10 * k);
      EXPECT_EQ(failures[k].message, "job " + std::to_string(3 + 10 * k));
      EXPECT_TRUE(failures[k].error != nullptr);
    }
  }
}

// The rethrow picks the lowest-index failure — deterministic no matter
// which worker hit which exception first.
TEST(ParallelRunner, RethrowsLowestIndexFailure) {
  try {
    for_each_index(64, 8, [](std::size_t i) {
      if (i == 7 || i == 11 || i == 50) {
        throw std::runtime_error{"task " + std::to_string(i)};
      }
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 7");
  }
}

TEST(ParallelRunner, CollectKeepsSurvivingResultsDeterministic) {
  std::vector<int> configs(24);
  std::iota(configs.begin(), configs.end(), 0);
  const auto [results, failures] =
      run_parallel_collect(configs, [](const int& c) {
        if (c % 7 == 5) throw std::invalid_argument{"bad config"};
        return c * 3;
      });
  ASSERT_EQ(results.size(), configs.size());
  ASSERT_EQ(failures.size(), 3u);  // configs 5, 12, 19
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i % 7 == 5) {
      EXPECT_EQ(results[i], 0);  // failed slot: default-constructed
    } else {
      EXPECT_EQ(results[i], static_cast<int>(i) * 3);
    }
  }
}

TEST(ParallelRunner, NonStdExceptionGetsPlaceholderMessage) {
  const auto failures = for_each_index_collect(
      4, 2, [](std::size_t i) {
        if (i == 2) throw 42;  // not derived from std::exception
      });
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].index, 2u);
  EXPECT_FALSE(failures[0].message.empty());
  EXPECT_TRUE(failures[0].error != nullptr);
}

// run_parallel reports each failed job as one warning, so a sink installed
// by the caller sees it like any other run message.
TEST(ParallelRunner, FailedJobIsWarnedThroughTheLogSink) {
  sim::CaptureLogSink capture;
  const std::vector<int> configs{0, 1, 2};
  const auto results = run_parallel(configs, [](const int& c) {
    if (c == 1) throw std::runtime_error{"boom"};
    return c;
  });
  EXPECT_EQ(results[2], 2);
  ASSERT_EQ(capture.records().size(), 1u);
  EXPECT_EQ(capture.records()[0].message, "run_parallel: job 1 failed: boom");
}

// Bitwise equality for the scalar measurement fields plus structural
// equality for the heap-backed telemetry sections. memcmp over the whole
// struct stopped being meaningful once ConcurrencyResult grew vectors —
// identical contents live at different heap addresses.
void expect_identical(const ConcurrencyResult& a, const ConcurrencyResult& b,
                      const char* what) {
  EXPECT_EQ(std::memcmp(&a.act_ms, &b.act_ms, sizeof a.act_ms), 0) << what;
  EXPECT_EQ(std::memcmp(&a.min_ms, &b.min_ms, sizeof a.min_ms), 0) << what;
  EXPECT_EQ(std::memcmp(&a.max_ms, &b.max_ms, sizeof a.max_ms), 0) << what;
  EXPECT_EQ(a.spt_timeouts, b.spt_timeouts) << what;
  EXPECT_EQ(a.completed_spts, b.completed_spts) << what;
  EXPECT_EQ(a.total_spts, b.total_spts) << what;
  EXPECT_TRUE(a.telemetry.metrics == b.telemetry.metrics) << what;
  EXPECT_EQ(a.telemetry.events.by_kind, b.telemetry.events.by_kind) << what;
  ASSERT_EQ(a.flow_summaries.size(), b.flow_summaries.size()) << what;
  for (std::size_t i = 0; i < a.flow_summaries.size(); ++i) {
    const auto& fa = a.flow_summaries[i];
    const auto& fb = b.flow_summaries[i];
    EXPECT_EQ(fa.flow, fb.flow) << what;
    EXPECT_EQ(fa.protocol, fb.protocol) << what;
    EXPECT_EQ(std::memcmp(&fa.goodput_mbps, &fb.goodput_mbps,
                          sizeof fa.goodput_mbps), 0) << what;
    EXPECT_EQ(std::memcmp(&fa.completion_s, &fb.completion_s,
                          sizeof fa.completion_s), 0) << what;
    EXPECT_EQ(fa.retransmits, fb.retransmits) << what;
    EXPECT_EQ(fa.timeouts, fb.timeouts) << what;
  }
}

// The determinism contract: a batch of real scenario runs produces results
// byte-identical to the serial loop, at any worker width. Each run owns an
// isolated World and a config-derived seed, so scheduling cannot leak in.
TEST(ParallelRunner, ScenarioBatchIsBitIdenticalToSerial) {
  std::vector<ConcurrencyConfig> cfgs;
  for (int i = 0; i < 4; ++i) {
    ConcurrencyConfig cfg;
    cfg.num_spt_servers = 2 + i;
    cfg.num_lpt_servers = 1;
    cfg.run_until = sim::SimTime::seconds(0.6);
    cfg.seed = run_seed(0x7E57, i);
    cfgs.push_back(cfg);
  }

  std::vector<ConcurrencyResult> serial;
  for (const auto& cfg : cfgs) serial.push_back(run_concurrency(cfg));

  for (const int jobs : {2, 4}) {
    std::vector<ConcurrencyResult> parallel(cfgs.size());
    for_each_index(cfgs.size(), jobs, [&](std::size_t i) {
      parallel[i] = run_concurrency(cfgs[i]);
    });
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      const std::string what = "run " + std::to_string(i) + " diverged at " +
                               std::to_string(jobs) + " jobs";
      expect_identical(serial[i], parallel[i], what.c_str());
    }
  }
}

}  // namespace
}  // namespace trim::exp
