/**
 * @file
 * Tests for the host-parallel experiment runner: runJobs's shared
 * job counter and its error rule, per-job seed derivation, the JSON
 * result sink, and — the load bearing property — that sweeps are
 * bit-identical for any worker count, which requires the simulator
 * to be safely embeddable many-per-process.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "channel/experiment.hh"
#include "config/presets.hh"
#include "config/resolver.hh"
#include "runner/json_sink.hh"
#include "runner/runner.hh"

namespace csim
{
namespace
{

TEST(RunJobs, RunsEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> runs(100);
    std::vector<std::function<std::size_t()>> jobs;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        jobs.push_back([&runs, i] {
            runs[i].fetch_add(1);
            return i;
        });
    }
    RunnerOptions opts;
    opts.jobs = 4;
    const std::vector<std::size_t> results =
        runJobs(std::move(jobs), opts);
    ASSERT_EQ(results.size(), runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        EXPECT_EQ(runs[i].load(), 1) << "job " << i;
        EXPECT_EQ(results[i], i);
    }
}

TEST(RunJobs, OneWorkerRunsJobsInIndexOrder)
{
    std::vector<std::size_t> order;
    std::vector<std::function<int()>> jobs;
    for (std::size_t i = 0; i < 12; ++i) {
        jobs.push_back([&order, i] {
            order.push_back(i);
            return 0;
        });
    }
    RunnerOptions opts;
    opts.jobs = 1;
    runJobs(std::move(jobs), opts);
    std::vector<std::size_t> expected(12);
    std::iota(expected.begin(), expected.end(), std::size_t{0});
    EXPECT_EQ(order, expected);
}

TEST(RunJobs, FreeWorkerRunsTheRestWhileOneJobWaits)
{
    // Job 0 waits for the last job to run. The other worker must
    // claim every remaining index meanwhile; a static round-robin
    // split would queue job 8 behind job 0 on one worker, and job 0
    // would time out.
    constexpr std::size_t n = 9;
    std::mutex mtx;
    std::condition_variable cv;
    bool last_ran = false;
    std::vector<std::function<int()>> jobs;
    for (std::size_t i = 0; i < n; ++i) {
        jobs.push_back([&, i] {
            std::unique_lock<std::mutex> lk(mtx);
            if (i == 0) {
                return static_cast<int>(
                    cv.wait_for(lk, std::chrono::seconds(5),
                                [&] { return last_ran; }));
            }
            if (i == n - 1) {
                last_ran = true;
                cv.notify_all();
            }
            return 1;
        });
    }
    RunnerOptions opts;
    opts.jobs = 2;
    const std::vector<int> finished = runJobs(std::move(jobs), opts);
    EXPECT_EQ(finished[0], 1) << "job 0 timed out waiting for job 8";
}

TEST(RunJobs, FailedJobLeavesTheOthersRunning)
{
    for (int workers : {1, 2}) {
        std::atomic<int> ran{0};
        std::vector<std::function<int()>> jobs;
        for (int i = 0; i < 8; ++i) {
            jobs.push_back([&ran, i] {
                ran.fetch_add(1);
                if (i == 3)
                    throw std::runtime_error("job 3 failed");
                return i;
            });
        }
        RunnerOptions opts;
        opts.jobs = workers;
        EXPECT_THROW(runJobs(std::move(jobs), opts), std::runtime_error);
        EXPECT_EQ(ran.load(), 8) << workers << " worker(s)";
        // The runner keeps no state between calls: the next one works.
        std::vector<std::function<int()>> next = {[] { return 7; }};
        EXPECT_EQ(runJobs(std::move(next), opts), std::vector<int>{7});
    }
}

TEST(RunJobs, RethrowsTheLowestFailingIndex)
{
    // Job 1 throws late, well after job 6 has thrown: the error is
    // still job 1's, so it does not depend on timing or --jobs.
    std::vector<std::function<int()>> jobs;
    for (int i = 0; i < 8; ++i) {
        jobs.push_back([i] {
            if (i == 1) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(100));
                throw std::runtime_error("job 1 failed");
            }
            if (i == 6)
                throw std::runtime_error("job 6 failed");
            return i;
        });
    }
    RunnerOptions opts;
    opts.jobs = 8;
    try {
        runJobs(std::move(jobs), opts);
        FAIL() << "expected runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "job 1 failed");
    }
}

TEST(DeriveSeed, DeterministicAndDecorrelated)
{
    EXPECT_EQ(deriveSeed(2018, 0), deriveSeed(2018, 0));
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 1000; ++i)
        seen.insert(deriveSeed(2018, i));
    EXPECT_EQ(seen.size(), 1000u);
    EXPECT_NE(deriveSeed(1, 0), deriveSeed(2, 0));
}

TEST(RunnerOptions, FromArgsParsesJobs)
{
    const char *argv[] = {"bench", "--jobs", "7", "--quiet"};
    const RunnerOptions opts =
        RunnerOptions::fromArgs(4, const_cast<char **>(argv));
    EXPECT_EQ(opts.jobs, 7);
    EXPECT_FALSE(opts.progress);
    EXPECT_EQ(opts.resolvedJobs(), 7);
    EXPECT_GE(RunnerOptions{}.resolvedJobs(), 1);
}

TEST(RunnerOptions, JobsFlagWinsOverEnvironmentAndEmptyEnvIsUnset)
{
    const char *saved = std::getenv("CSIM_JOBS");
    const std::string restore = saved ? saved : "";

    // A malformed CSIM_JOBS is never read when --jobs is given.
    ::setenv("CSIM_JOBS", "x", 1);
    const char *flag[] = {"bench", "--jobs", "2"};
    EXPECT_EQ(RunnerOptions::fromArgs(3, const_cast<char **>(flag)).jobs,
              2);

    // CSIM_JOBS=${N} with N unset means automatic, as if unset.
    ::setenv("CSIM_JOBS", "", 1);
    const char *bare[] = {"bench"};
    EXPECT_EQ(RunnerOptions::fromArgs(1, const_cast<char **>(bare)).jobs,
              0);

    ::setenv("CSIM_JOBS", "3", 1);
    EXPECT_EQ(RunnerOptions::fromArgs(1, const_cast<char **>(bare)).jobs,
              3);

    if (saved)
        ::setenv("CSIM_JOBS", restore.c_str(), 1);
    else
        ::unsetenv("CSIM_JOBS");
}

TEST(RunJobs, ResultsInSubmissionOrderForAnyWorkerCount)
{
    // Jobs finish out of order (reverse-staggered sleeps); the
    // result vector must still be index-ordered.
    auto make_jobs = [] {
        std::vector<std::function<int()>> jobs;
        for (int i = 0; i < 16; ++i) {
            jobs.push_back([i] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds((16 - i) % 5));
                return i * i;
            });
        }
        return jobs;
    };
    for (int workers : {1, 8}) {
        RunnerOptions opts;
        opts.jobs = workers;
        const std::vector<int> results =
            runJobs(make_jobs(), opts);
        ASSERT_EQ(results.size(), 16u);
        for (int i = 0; i < 16; ++i)
            EXPECT_EQ(results[static_cast<std::size_t>(i)], i * i);
    }
}

TEST(Json, DumpAndEscape)
{
    Json root = Json::object();
    root["name"] = "line\nbreak \"quoted\"";
    root["count"] = 3;
    root["ratio"] = 0.5;
    root["ok"] = true;
    root["rows"] = Json::array();
    root["rows"].push(Json::object());
    const std::string out = root.dump();
    EXPECT_NE(out.find("\"line\\nbreak \\\"quoted\\\"\""),
              std::string::npos);
    EXPECT_NE(out.find("\"count\": 3"), std::string::npos);
    EXPECT_NE(out.find("\"ok\": true"), std::string::npos);
    EXPECT_NE(out.find("0.5"), std::string::npos);
}

TEST(Json, EscapesControlCharacters)
{
    // Named escapes for the common controls, \uXXXX for the rest;
    // backslash and quote always escaped.
    Json j = std::string("a\tb\nc\rd\x01" "e\x1f\\\"");
    EXPECT_EQ(j.dump(),
              "\"a\\tb\\nc\\rd\\u0001e\\u001f\\\\\\\"\"");
    // NUL embedded in a std::string must not truncate the output.
    Json nul = std::string("x\0y", 3);
    EXPECT_EQ(nul.dump(), "\"x\\u0000y\"");
}

TEST(Json, PassesUtf8Through)
{
    // Multi-byte UTF-8 (bytes >= 0x80) is emitted verbatim, never
    // \u-escaped: "héllo → 世界".
    const std::string text = "h\xc3\xa9llo \xe2\x86\x92 "
                             "\xe4\xb8\x96\xe7\x95\x8c";
    Json j = text;
    EXPECT_EQ(j.dump(), "\"" + text + "\"");
}

TEST(Json, RoundTripsDoublesExactly)
{
    Json j = 0.1 + 0.2;  // 0.30000000000000004
    std::ostringstream os;
    j.dump(os);
    EXPECT_EQ(std::stod(os.str()), 0.1 + 0.2);
}

TEST(Json, WriteFileAndEnvelope)
{
    Json artifact = benchArtifact("unit", 4, 1.25);
    artifact["rows"].push(Json(std::int64_t{1}));
    const std::string path = "BENCH_unit_test.json";
    writeJsonFile(path, artifact);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string content = buf.str();
    EXPECT_NE(content.find("\"bench\": \"unit\""),
              std::string::npos);
    EXPECT_NE(content.find("\"jobs\": 4"), std::string::npos);
    in.close();
    std::remove(path.c_str());
}

/** Two Machines driven from two host threads at once must not
 *  interfere: same results as when each runs alone. */
TEST(ParallelSafety, ConcurrentMachinesMatchSoloRuns)
{
    ChannelConfig cfg;
    cfg.system.seed = 77;
    const CalibrationResult cal =
        calibrate(cfg.system, 150, cfg.params);
    Rng rng(3);
    const BitString payload = randomBits(rng, 24);
    cfg.timeout = cfg.deriveTimeout(payload.size());

    auto run_one = [&](Scenario sc) {
        ChannelConfig c = cfg;
        c.scenario = sc;
        return runTransmission(c, payload, &cal);
    };

    // Solo (sequential) reference runs.
    const ChannelReport solo_a = run_one(Scenario::lexcC_lshB);
    const ChannelReport solo_b = run_one(Scenario::rexcC_lshB);

    // The same two simulations concurrently on two host threads.
    ChannelReport conc_a, conc_b;
    std::thread ta([&] { conc_a = run_one(Scenario::lexcC_lshB); });
    std::thread tb([&] { conc_b = run_one(Scenario::rexcC_lshB); });
    ta.join();
    tb.join();

    EXPECT_EQ(bitsToString(solo_a.received),
              bitsToString(conc_a.received));
    EXPECT_EQ(bitsToString(solo_b.received),
              bitsToString(conc_b.received));
    EXPECT_DOUBLE_EQ(solo_a.metrics.accuracy,
                     conc_a.metrics.accuracy);
    EXPECT_DOUBLE_EQ(solo_b.metrics.accuracy,
                     conc_b.metrics.accuracy);
    EXPECT_EQ(solo_a.metrics.durationCycles,
              conc_a.metrics.durationCycles);
    EXPECT_EQ(solo_b.metrics.durationCycles,
              conc_b.metrics.durationCycles);
}

/**
 * The line arrays of the machines the workers tear down go to one
 * free list for the next machine on any worker. Jobs that build and
 * drop a machine of another shape, then run a seeded transmission,
 * must give the same results on 4 workers as on 1, whichever arrays
 * each worker reuses.
 */
TEST(ParallelSafety, RecycledCacheArraysMatchOneWorker)
{
    ChannelConfig base;
    base.system.seed = 31;
    const CalibrationResult cal =
        calibrate(base.system, 150, base.params);
    Rng rng(12);
    const BitString payload = randomBits(rng, 24);

    struct Cell
    {
        std::string received;
        Tick duration = 0;
        std::uint64_t loads = 0;
    };
    auto run = [&](int workers) {
        std::vector<std::function<Cell()>> jobs;
        for (int i = 0; i < 12; ++i) {
            jobs.push_back([&base, &cal, &payload, i] {
                {
                    SystemConfig shape = base.system;
                    shape.coresPerSocket = 4 + i % 3;
                    shape.llc.sizeBytes = (4 + i % 2) << 20;
                    Machine m(shape);
                    m.mem.load(0, 0x1000, 0);
                }
                ChannelConfig cfg = base;
                cfg.scenario = i % 2 ? Scenario::rexcC_lshB
                                     : Scenario::lexcC_lshB;
                cfg.system.seed = base.system.seed + i;
                cfg.timeout = cfg.deriveTimeout(payload.size());
                const ChannelReport rep =
                    runTransmission(cfg, payload, &cal);
                return Cell{bitsToString(rep.received),
                            rep.metrics.durationCycles,
                            rep.counters.value("mem.loads")};
            });
        }
        RunnerOptions opts;
        opts.jobs = workers;
        return runJobs(std::move(jobs), opts);
    };

    const auto one = run(1);
    const auto four = run(4);
    ASSERT_EQ(one.size(), four.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(one[i].received, four[i].received) << "job " << i;
        EXPECT_EQ(one[i].duration, four[i].duration) << "job " << i;
        EXPECT_EQ(one[i].loads, four[i].loads) << "job " << i;
    }
}

/** The acceptance property: a sweep produces bit-identical tables
 *  for --jobs 1 and --jobs 8. */
TEST(ParallelSweep, BitIdenticalAcrossWorkerCounts)
{
    ChannelConfig base;
    base.system.seed = 2018;
    const CalibrationResult cal =
        calibrate(base.system, 150, base.params);
    Rng rng(8);
    const BitString payload = randomBits(rng, 24);

    const std::vector<Scenario> scenarios = {
        Scenario::lexcC_lshB, Scenario::rexcC_lshB};
    const std::vector<double> rates = {150, 500};

    struct Cell
    {
        std::string received;
        double accuracy = 0.0;
        double rawKbps = 0.0;
        Tick duration = 0;
    };
    auto sweep = [&](int workers) {
        std::vector<std::function<Cell()>> jobs;
        for (Scenario sc : scenarios) {
            for (double rate : rates) {
                jobs.push_back([&base, &cal, &payload, sc, rate] {
                    ChannelConfig cfg = base;
                    cfg.scenario = sc;
                    cfg.params = ChannelParams::forTargetKbps(
                        rate, cfg.system.timing);
                    cfg.timeout =
                        cfg.deriveTimeout(payload.size());
                    const ChannelReport rep =
                        runTransmission(cfg, payload, &cal);
                    return Cell{bitsToString(rep.received),
                                rep.metrics.accuracy,
                                rep.metrics.rawKbps,
                                rep.metrics.durationCycles};
                });
            }
        }
        RunnerOptions opts;
        opts.jobs = workers;
        return runJobs(std::move(jobs), opts);
    };

    const auto seq = sweep(1);
    const auto par = sweep(8);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_EQ(seq[i].received, par[i].received) << "job " << i;
        EXPECT_DOUBLE_EQ(seq[i].accuracy, par[i].accuracy)
            << "job " << i;
        EXPECT_DOUBLE_EQ(seq[i].rawKbps, par[i].rawKbps)
            << "job " << i;
        EXPECT_EQ(seq[i].duration, par[i].duration) << "job " << i;
    }
}

TEST(ParallelSweep, ConfigBuiltGridBitIdenticalAcrossWorkerCounts)
{
    // The declarative path the CLI sweep and the fig08/fig09 benches
    // take: grid from ExperimentSpec expansion, counters + metrics
    // bit-identical for any worker count.
    ConfigResolver resolver;
    resolver.applyOverride("system.seed", "2018", "default");
    resolver.applyOverride("sweep.scenarios", "1,4", "test");
    resolver.applyOverride("sweep.rates", "150,500", "test");
    resolver.applyOverride("payload.bits", "24", "test");
    resolver.applyOverride("channel.timeout_margin", "10", "test");
    const ExperimentSpec &base = resolver.spec();
    base.validate();

    const CalibrationResult cal =
        calibrate(base.channel.system, 150);
    Rng rng(8);
    const BitString payload = randomBits(rng, base.payloadBits());
    const std::vector<ExperimentSpec> grid = expandGrid(base);
    ASSERT_EQ(grid.size(), 4u);

    struct Cell
    {
        std::string received;
        Tick duration = 0;
        std::string counters;
    };
    auto sweep = [&](int workers) {
        std::vector<std::function<Cell()>> jobs;
        for (const ExperimentSpec &point : grid) {
            jobs.push_back([&point, &cal, &payload] {
                const ChannelReport rep = runTransmission(
                    point.toChannelConfig(), payload, &cal);
                return Cell{bitsToString(rep.received),
                            rep.metrics.durationCycles,
                            rep.counters.toJson().dump()};
            });
        }
        RunnerOptions opts;
        opts.jobs = workers;
        return runJobs(std::move(jobs), opts);
    };

    const auto seq = sweep(1);
    const auto par = sweep(8);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_EQ(seq[i].received, par[i].received) << "point " << i;
        EXPECT_EQ(seq[i].duration, par[i].duration) << "point " << i;
        EXPECT_EQ(seq[i].counters, par[i].counters) << "point " << i;
    }
}

} // namespace
} // namespace csim
