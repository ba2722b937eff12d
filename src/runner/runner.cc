#include "runner/runner.hh"

#include <atomic>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
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

SweepRunner::SweepRunner(RunnerOptions opts) : opts_(std::move(opts)) {}

void
SweepRunner::run(std::size_t n,
                 const std::function<void(std::size_t)> &run_one)
{
    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();

    std::atomic<std::size_t> completed{0};

    // Progress/ETA reporter: one line, rewritten in place on stderr.
    std::atomic<bool> reporting{opts_.progress && n > 0};
    std::mutex repMtx;
    std::condition_variable repCv;
    std::thread reporter;
    if (reporting.load()) {
        reporter = std::thread([&] {
            std::unique_lock<std::mutex> lk(repMtx);
            for (;;) {
                repCv.wait_for(lk, std::chrono::milliseconds(250),
                               [&] { return !reporting.load(); });
                const std::size_t done = completed.load();
                const double elapsed =
                    std::chrono::duration<double>(Clock::now() - t0)
                        .count();
                const double eta =
                    done > 0 ? elapsed * static_cast<double>(n - done) /
                                   static_cast<double>(done)
                             : 0.0;
                std::fprintf(stderr,
                             "\r%s%s%zu/%zu jobs  %.1fs elapsed  "
                             "eta %.1fs   ",
                             opts_.label.c_str(),
                             opts_.label.empty() ? "" : ": ", done, n,
                             elapsed, eta);
                std::fflush(stderr);
                if (!reporting.load())
                    break;
            }
            std::fprintf(stderr, "\n");
        });
    }

    {
        WorkStealingPool pool(opts_.resolvedJobs());
        for (std::size_t i = 0; i < n; ++i) {
            pool.submit([&, i] {
                {
                    // One identical span per job, whatever worker
                    // thread picked it up: nested spans then share
                    // the same path at any --jobs split.
                    ScopedSpan span("runner.job");
                    run_one(i);
                }
                completed.fetch_add(1, std::memory_order_relaxed);
            });
        }
        try {
            pool.drain();
        } catch (...) {
            if (reporter.joinable()) {
                {
                    std::lock_guard<std::mutex> lk(repMtx);
                    reporting.store(false);
                }
                repCv.notify_all();
                reporter.join();
            }
            throw;
        }
    }

    if (reporter.joinable()) {
        {
            std::lock_guard<std::mutex> lk(repMtx);
            reporting.store(false);
        }
        repCv.notify_all();
        reporter.join();
    }
    lastWallSeconds_ =
        std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace csim
