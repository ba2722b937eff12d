/**
 * @file
 * Host-parallel experiment runner: fans independent `Machine`
 * simulations out across host cores.
 *
 * Every paper sweep (Fig. 8's scenarios x rates grid, Fig. 9's noise
 * grid, the §VIII-E ablation matrices) is a set of independent,
 * deterministic simulations whose count is known up front. The
 * runner's worker threads claim job indices from one shared counter
 * and write each job's result into the slot of its index, so the
 * assembled table is bit-identical regardless of worker count or
 * which worker ran which job.
 *
 * Per-job randomness must come from deriveSeed(base, index) — never
 * from a shared Rng advanced across jobs — or results would depend on
 * execution order.
 */

#ifndef COHERSIM_RUNNER_RUNNER_HH
#define COHERSIM_RUNNER_RUNNER_HH

#include <cstddef>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

// deriveSeed — the per-job seed derivation every sweep relies on —
// lives in the utility layer now so the channel's fleet orchestrator
// can share it; re-exported here because the runner is where sweep
// authors look for it.
#include "common/random.hh"

namespace csim
{

/** Options shared by every sweep entry point. */
struct RunnerOptions
{
    /** Host worker threads; <= 0 means all hardware threads. */
    int jobs = 0;
    /** Print a progress/ETA line to stderr while the sweep runs. */
    bool progress = false;
    /** Prefix of the progress line (usually the bench name). */
    std::string label;
    /** `--quick`: run the bench's trimmed grid. */
    bool quick = false;

    /**
     * Parse a bench argv: `--jobs N`, `--quiet` and, when
     * @p has_quick_grid, `--quick`. Without `--jobs`, a non-empty
     * `CSIM_JOBS` environment variable sets the count. progress
     * defaults to on when stderr is a terminal. Any other argument,
     * a job count that is not an integer in [0, INT_MAX], or a
     * trailing `--jobs` with no value prints the error and exits 2
     * before any worker starts.
     */
    static RunnerOptions fromArgs(int argc, char **argv,
                                  bool has_quick_grid = false);

    /** Worker count after resolving 0 to the hardware concurrency. */
    int resolvedJobs() const;
};

/**
 * Run @p run_one(i) for every i in [0, n) on min(resolvedJobs(), n)
 * host threads, never on the caller's. Each worker claims the next
 * unclaimed index until none is left, so at one worker the jobs run
 * in index order. A job that throws does not stop the others; once
 * all have run, the lowest failing index's exception is rethrown, so
 * the error does not depend on the worker count. The warn()/inform()
 * lines a job prints are held and printed after the join, in index
 * order, before that rethrow. With @p opts.progress the caller
 * prints a progress/ETA line to stderr every 250 ms while it waits.
 *
 * @return the wall-clock seconds the whole batch took.
 */
double runIndexed(std::size_t n,
                  const std::function<void(std::size_t)> &run_one,
                  const RunnerOptions &opts);

/**
 * Run a vector of result-returning jobs, collecting the results in
 * submission order (deterministic for any worker count).
 */
template <typename R>
std::vector<R>
runJobs(std::vector<std::function<R()>> jobs, RunnerOptions opts = {},
        double *wall_seconds = nullptr)
{
    // Workers write neighbouring slots at once, which vector<bool>'s
    // packed bits would turn into a data race.
    static_assert(!std::is_same_v<R, bool>, "return char, not bool");
    std::vector<R> results(jobs.size());
    const double wall = runIndexed(
        jobs.size(), [&](std::size_t i) { results[i] = jobs[i](); },
        opts);
    if (wall_seconds)
        *wall_seconds = wall;
    return results;
}

} // namespace csim

#endif // COHERSIM_RUNNER_RUNNER_HH
