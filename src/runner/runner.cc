#include "runner/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "common/parse.hh"
#include "prof/profiler.hh"

namespace csim
{

RunnerOptions
RunnerOptions::fromArgs(int argc, char **argv)
{
    RunnerOptions opts;
#ifndef _WIN32
    opts.progress = isatty(2) != 0;
#endif
    // The CLI's range: 0 picks the hardware concurrency.
    auto jobs = [](const char *what, const char *text) {
        return static_cast<int>(parseIntegerIn(what, text, 0, INT_MAX));
    };
    try {
        bool jobs_given = false;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--jobs") {
                if (i + 1 == argc)
                    throw ConfigError("--jobs needs a value");
                opts.jobs = jobs("--jobs", argv[++i]);
                jobs_given = true;
            } else if (arg == "--quiet") {
                opts.progress = false;
            }
        }
        // --jobs wins over CSIM_JOBS; an empty CSIM_JOBS is unset.
        const char *env = std::getenv("CSIM_JOBS");
        if (!jobs_given && env && *env)
            opts.jobs = jobs("CSIM_JOBS", env);
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        std::exit(2);
    }
    return opts;
}

int
RunnerOptions::resolvedJobs() const
{
    if (jobs > 0)
        return jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

double
runIndexed(std::size_t n, const std::function<void(std::size_t)> &run_one,
           const RunnerOptions &opts)
{
    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();

    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(n);
    std::mutex mtx;
    std::condition_variable finished;
    std::size_t done = 0;  // guarded by mtx
    const auto work = [&] {
        for (std::size_t i = next++; i < n; i = next++) {
            try {
                // One identical span per job, whatever worker thread
                // claimed it: nested spans then share the same path
                // at any --jobs split.
                ScopedSpan span("runner.job");
                run_one(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
            std::lock_guard<std::mutex> lk(mtx);
            if (++done == n)
                finished.notify_one();
        }
    };

    // Jobs never run on the caller's thread, even at one worker: the
    // runner.job span then has the same path whoever calls, and job
    // allocations stay in the workers' malloc arenas. jthreads join
    // on destruction, so a worker that fails to start leaves the
    // started ones to finish the jobs before the error propagates.
    const std::size_t count =
        std::min(static_cast<std::size_t>(opts.resolvedJobs()), n);
    std::vector<std::jthread> workers;
    workers.reserve(count);
    for (std::size_t w = 0; w < count; ++w)
        workers.emplace_back(work);

    if (opts.progress && n > 0) {
        // One line, rewritten in place on stderr.
        std::unique_lock<std::mutex> lk(mtx);
        for (bool all = false; !all;) {
            all = finished.wait_for(lk, std::chrono::milliseconds(250),
                                    [&] { return done == n; });
            const double elapsed =
                std::chrono::duration<double>(Clock::now() - t0).count();
            const double eta =
                done > 0 ? elapsed * static_cast<double>(n - done) /
                               static_cast<double>(done)
                         : 0.0;
            std::fprintf(stderr,
                         "\r%s%s%zu/%zu jobs  %.1fs elapsed  eta %.1fs   ",
                         opts.label.c_str(), opts.label.empty() ? "" : ": ",
                         done, n, elapsed, eta);
            std::fflush(stderr);
        }
        std::fprintf(stderr, "\n");
    }
    for (std::jthread &t : workers)
        t.join();

    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace csim
