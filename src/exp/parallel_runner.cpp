#include "exp/parallel_runner.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "obs/profiler.hpp"
#include "sim/logging.hpp"

namespace trim::exp {

int parse_jobs(const char* env, int fallback) {
  if (env == nullptr) return fallback;
  char* end = nullptr;
  const long n = std::strtol(env, &end, 10);
  if (end == env || n <= 0) return fallback;
  return static_cast<int>(n);
}

int parallel_jobs() {
  static const int jobs = [] {
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    return parse_jobs(std::getenv("REPRO_JOBS"), hw > 0 ? hw : 1);
  }();
  return jobs;
}

namespace {

JobFailure capture_failure(std::size_t index) {
  JobFailure f;
  f.index = index;
  f.error = std::current_exception();
  try {
    throw;
  } catch (const std::exception& e) {
    f.message = e.what();
  } catch (...) {
    f.message = "non-std exception";
  }
  return f;
}

}  // namespace

std::vector<JobFailure> for_each_index_collect(
    std::size_t count, int jobs, const std::function<void(std::size_t)>& fn) {
  std::vector<JobFailure> failures;
  if (count == 0) return failures;
  // Per-batch and per-job wall times feed the "profile" section of run
  // reports through obs::sweep_profiler(). Wall time is the only
  // nondeterministic quantity recorded; job results are untouched.
  obs::ScopedTimer batch_timer{obs::sweep_profiler(), "sweep.batch"};
  batch_timer.add_items(count - 1);  // the timer itself counts 1
  if (jobs <= 1 || count == 1) {
    // Serial path: same containment as the pool — a throwing job is
    // captured and the remaining indices still run.
    for (std::size_t i = 0; i < count; ++i) {
      try {
        obs::ScopedTimer job_timer{obs::sweep_profiler(), "sweep.job"};
        fn(i);
      } catch (...) {
        failures.push_back(capture_failure(i));
      }
    }
    return failures;
  }

  // The cursor is the only word every worker hammers; keep it on its own
  // cache line so fetch_add never contends with the mutex or the failures
  // vector header sitting next to it on the stack.
  struct alignas(64) PoolState {
    std::atomic<std::size_t> cursor{0};
  };
  PoolState state;
  std::mutex failures_mu;
  auto worker = [&] {
    while (true) {
      const std::size_t i = state.cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        obs::ScopedTimer job_timer{obs::sweep_profiler(), "sweep.job"};
        fn(i);
      } catch (...) {
        auto f = capture_failure(i);
        const std::lock_guard<std::mutex> lock{failures_mu};
        failures.push_back(std::move(f));
      }
    }
  };

  const std::size_t width =
      std::min(static_cast<std::size_t>(jobs), count);
  std::vector<std::thread> pool;
  pool.reserve(width - 1);
  for (std::size_t t = 1; t < width; ++t) pool.emplace_back(worker);
  worker();  // the caller is the pool's first worker
  for (auto& th : pool) th.join();
  // Arrival order depends on scheduling; index order does not.
  std::sort(failures.begin(), failures.end(),
            [](const JobFailure& a, const JobFailure& b) { return a.index < b.index; });
  return failures;
}

void for_each_index(std::size_t count, int jobs,
                    const std::function<void(std::size_t)>& fn) {
  const auto failures = for_each_index_collect(count, jobs, fn);
  if (!failures.empty()) std::rethrow_exception(failures.front().error);
}

void report_job_failures(const char* who, const std::vector<JobFailure>& failures) {
  for (const auto& f : failures) {
    sim::warn(0.0, "%s: job %zu failed: %s", who, f.index, f.message.c_str());
  }
}

}  // namespace trim::exp
