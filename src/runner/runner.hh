/**
 * @file
 * Host-parallel experiment runner: fans independent `Machine`
 * simulations out across host cores.
 *
 * Every paper sweep (Fig. 8's scenarios x rates grid, Fig. 9's noise
 * grid, the §VIII-E ablation matrices) is a set of independent,
 * deterministic simulations. The runner executes them on a
 * work-stealing pool and writes each job's result into a slot indexed
 * by submission order, so the assembled table is bit-identical
 * regardless of worker count or scheduling order.
 *
 * Per-job randomness must come from deriveSeed(base, index) — never
 * from a shared Rng advanced across jobs — or results would depend on
 * execution order.
 */

#ifndef COHERSIM_RUNNER_RUNNER_HH
#define COHERSIM_RUNNER_RUNNER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

// deriveSeed — the per-job seed derivation every sweep relies on —
// lives in the utility layer now so the channel's fleet orchestrator
// can share it; re-exported here because the runner is where sweep
// authors look for it.
#include "common/random.hh"
#include "runner/thread_pool.hh"

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

    /**
     * Parse `--jobs N` (and `--quiet`) from a bench argv; without
     * `--jobs`, a non-empty `CSIM_JOBS` environment variable sets the
     * count. Other arguments are left for the caller. progress defaults to on when stderr is a terminal.
     * A job count that is not an integer in [0, INT_MAX], or a
     * trailing `--jobs` with no value, prints the error and exits 2
     * before any worker starts.
     */
    static RunnerOptions fromArgs(int argc, char **argv);

    /** Worker count after resolving 0 to the hardware concurrency. */
    int resolvedJobs() const;
};

/**
 * Runs index-addressed jobs on a work-stealing pool and reports
 * progress. One instance per sweep.
 */
class SweepRunner
{
  public:
    explicit SweepRunner(RunnerOptions opts = {});

    /**
     * Execute @p run_one for every index in [0, n) across the pool;
     * blocks until all complete. Rethrows the first job exception.
     */
    void run(std::size_t n, const std::function<void(std::size_t)> &run_one);

    int jobs() const { return opts_.resolvedJobs(); }
    const RunnerOptions &options() const { return opts_; }

    /** Wall-clock seconds of the last run() call. */
    double lastWallSeconds() const { return lastWallSeconds_; }

  private:
    RunnerOptions opts_;
    double lastWallSeconds_ = 0.0;
};

/**
 * Convenience: run a vector of result-returning jobs, collecting the
 * results in submission order (deterministic for any worker count).
 */
template <typename R>
std::vector<R>
runJobs(std::vector<std::function<R()>> jobs, RunnerOptions opts = {},
        double *wall_seconds = nullptr)
{
    std::vector<R> results(jobs.size());
    SweepRunner runner(std::move(opts));
    runner.run(jobs.size(),
               [&](std::size_t i) { results[i] = jobs[i](); });
    if (wall_seconds)
        *wall_seconds = runner.lastWallSeconds();
    return results;
}

} // namespace csim

#endif // COHERSIM_RUNNER_RUNNER_HH
