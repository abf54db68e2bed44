// Fans independent experiment runs across a fixed pool of worker threads.
//
// Every task owns an isolated World (Simulator + Network) seeded by the
// process-stable run_seed(), so runs share no mutable state and results
// depend only on the per-task config — never on scheduling. Workers claim
// tasks from an atomic cursor (no work stealing; tasks are coarse, a full
// simulation each) and write results into a pre-sized vector at the task's
// submission index, so gathered output is bit-identical to a serial loop.
//
// The pool width comes from the REPRO_JOBS env knob: unset or <= 0 means
// hardware concurrency, REPRO_JOBS=1 restores the serial path (tasks run
// inline on the calling thread — no threads are created). Determinism
// contract in docs/ENGINE.md.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace trim::exp {

// Worker count from REPRO_JOBS (read once; default hw_concurrency, min 1).
int parallel_jobs();
// Parsing helper, exposed for tests: nullptr / non-numeric / <= 0 -> fallback.
int parse_jobs(const char* env, int fallback);

// One task that threw instead of completing.
struct JobFailure {
  std::size_t index = 0;
  std::string message;       // exception::what(), or a placeholder
  std::exception_ptr error;  // rethrowable original
};

// Invoke fn(0) .. fn(count-1) across `jobs` workers; blocks until all
// complete. With jobs <= 1 (or a single task) runs inline on the caller.
// A throwing task never takes down its worker or the remaining tasks —
// on *both* the serial and the parallel path every other index still
// runs, and the failures come back sorted by index. The surviving result
// set is therefore deterministic regardless of pool width or which
// worker hit the failure.
std::vector<JobFailure> for_each_index_collect(
    std::size_t count, int jobs, const std::function<void(std::size_t)>& fn);

// Same, but rethrows the lowest-index failure after every task has run
// (deterministic: independent of worker scheduling).
void for_each_index(std::size_t count, int jobs,
                    const std::function<void(std::size_t)>& fn);

// One warning (sim::warn) per failed job, as run_parallel reports them;
// exposed for run_parallel_collect callers that want the same format.
void report_job_failures(const char* who, const std::vector<JobFailure>& failures);

// Run `make_result(cfg)` for every config, REPRO_JOBS-wide, returning
// results (and the sorted failure list) in submission order. A failed
// job's slot holds a default-constructed Result.
template <typename Config, typename Fn>
auto run_parallel_collect(const std::vector<Config>& configs, Fn&& make_result)
    -> std::pair<std::vector<std::decay_t<std::invoke_result_t<Fn&, const Config&>>>,
                 std::vector<JobFailure>> {
  using Result = std::decay_t<std::invoke_result_t<Fn&, const Config&>>;
  std::vector<Result> results(configs.size());
  auto failures =
      for_each_index_collect(configs.size(), parallel_jobs(), [&](std::size_t i) {
        results[i] = make_result(configs[i]);
      });
  return {std::move(results), std::move(failures)};
}

// Resilient sweep: misconfigured or throwing jobs are reported on stderr
// and leave a default-constructed slot; every other job completes.
template <typename Config, typename Fn>
auto run_parallel(const std::vector<Config>& configs, Fn&& make_result)
    -> std::vector<std::decay_t<std::invoke_result_t<Fn&, const Config&>>> {
  auto [results, failures] =
      run_parallel_collect(configs, std::forward<Fn>(make_result));
  report_job_failures("run_parallel", failures);
  return std::move(results);
}

}  // namespace trim::exp
