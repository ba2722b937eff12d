/**
 * @file
 * cohersim_bench: the repository benchmark.
 *
 *   cohersim_bench --workload {sweep|fleet|mixed} [--seed N]
 *                  [--seconds S] [--trace [0|1]] [--json PATH]
 *                  [--smoke] [--write-expected]
 *   cohersim_bench compare DIR_A DIR_B
 *
 * A run sets the workload up repeatedly (set-up time is a metric),
 * runs one untimed warm-up cell, then runs the workload's fixed cell
 * plan on one runner worker — a closed loop with one client — and
 * keeps cycling through it, round by round, until --seconds have
 * passed. Repeated cells must reproduce their first digest, and the
 * first pass is checked against expected/<workload>.txt when that
 * file was generated for the same seed.
 *
 * --trace runs the plan twice, untraced and then with the profiler,
 * the benchmark's spans and a counting bus tap enabled; it checks the
 * two passes' digests agree, prints the per-layer breakdown and writes
 * trace_<workload>.json next to the binary.
 *
 * Human-readable `name value unit` lines come first; the last line of
 * standard output is one JSON object (correct/attempted/failed/
 * metrics) for benchmark harnesses.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.hh"

namespace bench
{

double
hostProbeMs()
{
    // Frozen: changing any constant here breaks comparisons with
    // results taken before the change.
    struct Way
    {
        std::uint64_t tag = ~0ULL;
        std::uint64_t last = 0;
    };
    constexpr std::size_t sets = 16384, assoc = 8;
    static std::vector<Way> ways(sets * assoc);
    static std::uint64_t now = 0;
    static std::uint64_t x = 0x243f6a8885a308d3ULL;
    const auto run = [](int n) {
        std::uint64_t hits = 0;
        for (int i = 0; i < n; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // 80% of accesses to a hot eighth of the lines.
            const std::uint64_t line = x % 10 < 8 ? (x >> 20) % (1u << 17)
                                                  : (x >> 20) % (1u << 20);
            Way *set = &ways[(line % sets) * assoc];
            ++now;
            std::size_t victim = 0;
            bool hit = false;
            for (std::size_t w = 0; w < assoc; ++w) {
                if (set[w].tag == line) {
                    set[w].last = now;
                    hit = true;
                    break;
                }
                if (set[w].last < set[victim].last)
                    victim = w;
            }
            if (hit)
                ++hits;
            else
                set[victim] = Way{line, now};
        }
        return hits;
    };
    // Refill what the last round evicted, then time.
    std::uint64_t hits = run(20000);
    const double t0 = threadCpuMs();
    hits += run(100000);
    const double ms = threadCpuMs() - t0;
    asm volatile("" : : "r"(hits));
    return ms;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

CellOutcome
runGuarded(const Workload &w, std::size_t cell,
           const CellObservers &observers)
{
    Span span(observers.tracer, "cell",
              static_cast<std::int64_t>(cell));
    try {
        return w.runCell(cell, observers);
    } catch (const std::exception &e) {
        CellOutcome out;
        out.failed = true;
        out.error = e.what();
        return out;
    }
}

Pass
runPass(const Workload &w, std::size_t plan, double min_ms,
        const CellObservers &observers)
{
    Pass pass;
    csim::RunnerOptions opts;
    opts.jobs = 1;
    const std::size_t round = std::min(w.roundSize(), plan);
    std::vector<double> probe_ms, round_ms;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t k = 0; k < plan || msSince(t0) < min_ms;) {
        const Clock::time_point p0 = Clock::now();
        probe_ms.push_back(hostProbeMs());
        pass.probeWallMs += msSince(p0);

        std::vector<std::function<CellOutcome()>> jobs;
        for (std::size_t j = 0; j < round; ++j, ++k) {
            const std::size_t cell = k % plan;
            jobs.push_back([&w, &observers, cell] {
                return runGuarded(w, cell, observers);
            });
        }
        // Process CPU time: the worker's cells plus the runner's own
        // cost; the main thread sleeps in runJobs meanwhile.
        const double r0 = processCpuMs();
        std::vector<CellOutcome> done =
            csim::runJobs(std::move(jobs), opts);
        round_ms.push_back(processCpuMs() - r0);
        for (CellOutcome &c : done)
            pass.cells.push_back(std::move(c));
    }
    pass.wallMs = msSince(t0);

    // Scale each round by the median of the five probes around it: the
    // host's speed drifts over seconds, while one 2 ms probe also
    // catches interrupts and short bursts of contention.
    for (std::size_t r = 0; r < round_ms.size(); ++r) {
        const std::size_t lo = r < 2 ? 0 : r - 2;
        const std::size_t hi = std::min(r + 3, probe_ms.size());
        const double scale =
            probeRefMs / percentile({probe_ms.begin() + lo,
                                     probe_ms.begin() + hi},
                                    50.0);
        pass.hostSpeed.push_back(scale);
        pass.refMs += round_ms[r] * scale;
        for (std::size_t i = r * round; i < (r + 1) * round; ++i)
            pass.cells[i].refMs = pass.cells[i].ms * scale;
    }
    return pass;
}

} // namespace bench

namespace
{

using namespace bench;
using namespace csim;

struct Options
{
    std::string workload;
    std::uint64_t seed = 2018;
    double seconds = 0.0;
    bool trace = false;
    bool smoke = false;
    bool writeExpected = false;
    std::string jsonPath;
};

/** Shortest round-trip decimal form of @p v. */
std::string
num(double v)
{
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

/**
 * The perf_suite host_ref loop (xorshift, 4096 steps per batch): a
 * context figure that tells a run taken on a slow or busy host apart.
 * Not a metric.
 */
double
hostRefMops()
{
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    std::uint64_t ops = 0;
    const Clock::time_point t0 = Clock::now();
    double ms = 0.0;
    do {
        for (int i = 0; i < 4096; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            asm volatile("" : "+r"(x));
        }
        ops += 4096;
        ms = msSince(t0);
    } while (ms < 200.0);
    return static_cast<double>(ops) / ms / 1e3;
}

/** Tallies failures; a cell counts once however many checks it fails. */
struct Verdict
{
    std::size_t attempted = 0;
    std::vector<bool> bad;  //!< per attempted cell
    std::vector<std::string> problems;

    std::size_t
    failed() const
    {
        return static_cast<std::size_t>(
            std::count(bad.begin(), bad.end(), true));
    }

    void
    add(const Pass &p, std::size_t plan)
    {
        const std::size_t base = bad.size();
        attempted += p.cells.size();
        bad.resize(bad.size() + p.cells.size(), false);
        for (std::size_t k = 0; k < p.cells.size(); ++k) {
            const CellOutcome &c = p.cells[k];
            if (c.failed) {
                flag(base + k, msgCat("cell ", k % plan,
                                      " failed: ", c.error));
            } else if (k >= plan &&
                       c.digest != p.cells[k % plan].digest) {
                flag(base + k, msgCat("cell ", k % plan,
                                      " is not deterministic: repeat ",
                                      k / plan, " digest differs"));
            }
        }
    }

    void
    flag(std::size_t i, const std::string &why)
    {
        if (!bad[i] && problems.size() < 20)
            problems.push_back(why);
        bad[i] = true;
    }
};

std::string
expectedPath(const std::string &workload)
{
    return std::string(BENCH_EXPECTED_DIR) + "/" + workload + ".txt";
}

/**
 * Compare the first @p n digests of @p p with the committed
 * reference. Returns false (no check made) when the file is absent or
 * was generated for another seed.
 */
bool
checkExpected(const Workload &w, std::uint64_t seed, const Pass &p,
              std::size_t n, Verdict &v)
{
    std::ifstream in(expectedPath(w.name()));
    if (!in)
        return false;
    std::string line;
    std::vector<std::uint64_t> ref;
    bool seed_ok = false;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::istringstream is(line);
        if (line[0] == '#') {
            std::string hash, key;
            std::uint64_t s = 0;
            if ((is >> hash >> key >> s) && key == "seed")
                seed_ok = s == seed;
            continue;
        }
        std::size_t idx = 0;
        std::string label, digest;
        std::uint64_t d = 0;
        if (!(is >> idx >> label >> digest) || idx != ref.size() ||
            std::from_chars(digest.data(), digest.data() + digest.size(),
                            d, 16)
                    .ptr != digest.data() + digest.size()) {
            v.problems.push_back("malformed expected file line: " +
                                 line);
            return true;
        }
        ref.push_back(d);
    }
    if (!seed_ok)
        return false;
    if (ref.size() < n) {
        v.problems.push_back(msgCat("expected file has ", ref.size(),
                                    " cells, the run needs ", n));
        return true;
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (p.cells[i].digest != ref[i]) {
            v.flag(i,
                   msgCat("cell ", i, " (", w.cellLabel(i),
                          ") digest ", hex(p.cells[i].digest),
                          " != expected ", hex(ref[i])));
        }
    }
    return true;
}

void
writeExpected(const Workload &w, std::uint64_t seed, const Pass &p,
              std::size_t plan)
{
    std::ofstream out(expectedPath(w.name()));
    out << "# seed " << seed << "\n"
        << "# cohersim_bench --workload " << w.name()
        << " --write-expected: one digest per plan cell; regenerate "
           "only when the simulated model changes\n";
    for (std::size_t i = 0; i < plan; ++i)
        out << i << " " << w.cellLabel(i) << " "
            << hex(p.cells[i].digest) << "\n";
    fatal_if(!out, "cannot write ", expectedPath(w.name()));
}

std::uint64_t
combinedDigest(const Pass &p, std::size_t plan)
{
    Hasher h;
    for (std::size_t i = 0; i < plan; ++i)
        h.u64(p.cells[i].digest);
    return h.value();
}

/** The exact (simulated) outcome metrics of one plan pass. */
void
outcomeMetrics(const Workload &w, const Pass &p, std::size_t plan,
               std::vector<Metric> &out)
{
    double units = 0, timeouts = 0, acc = 0, eff = 0;
    for (std::size_t i = 0; i < plan; ++i) {
        const CellOutcome &c = p.cells[i];
        units += c.units;
        timeouts += c.timeouts;
        acc += c.accuracySum;
        eff += c.effKbpsSum;
    }
    out.push_back({"timeout_frac", units ? timeouts / units : 0.0,
                   "fraction"});
    out.push_back({"accuracy_mean", units ? acc / units : 0.0,
                   "fraction"});
    out.push_back({"effective_kbps_mean", units ? eff / units : 0.0,
                   "Kbps"});
    std::vector<std::pair<std::string, double>> extra;
    const std::vector<CellOutcome> first(p.cells.begin(),
                                         p.cells.begin() + plan);
    w.planMetrics(first, extra);
    for (const auto &[name, value] : extra)
        out.push_back({name, value,
                       name == "peak_kbps" ? "Kbps" : "fraction"});
}

/** Host-time metrics of an untraced pass, at reference host speed. */
void
timingMetrics(const Workload &w, const Pass &p, std::vector<Metric> &out)
{
    const double secs = p.refMs / 1e3;
    std::vector<double> ms;
    double mcycles = 0.0;
    for (const CellOutcome &c : p.cells) {
        ms.push_back(c.refMs);
        mcycles += c.mcycles;
    }
    out.push_back({"cells_per_s",
                   static_cast<double>(p.cells.size()) / secs,
                   "cells/s"});
    out.push_back({"sim_mcycles_per_s", mcycles / secs, "Mcycles/s"});
    out.push_back({"cell_ms_p50", percentile(ms, 50.0), "ms"});
    // One name for the tail: p99 on sweep, p97 on mixed (the highest
    // percentiles with ten plan cells beyond them), the median on
    // fleet, whose 16 cells leave no tail.
    out.push_back({"cell_ms_tail", percentile(ms, w.tailPercentile()),
                   "ms"});
}

/**
 * Keep the run — the main thread, which times the host probe, and the
 * runner worker it spawns — on the CPU it started on. Unpinned, the
 * guest scheduler moves a new worker to whichever vCPU is free, each
 * backed by a differently loaded host core, and the probe then measures
 * another core than the cells ran on: on a shared VM, pinning cut the
 * sweep's run-to-run throughput spread from 6.2% to 3.6% (two
 * interleaved sets of six runs).
 */
void
pinToCurrentCpu()
{
    const int cpu = sched_getcpu();
    if (cpu < 0)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
printMetrics(const std::vector<Metric> &ms)
{
    for (const Metric &m : ms)
        std::cout << m.name << " " << num(m.value) << " " << m.unit
                  << "\n";
}

/** The one-line JSON result benchmark harnesses read. */
void
printResultLine(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<Metric> &metrics,
                const std::vector<std::string> &names)
{
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    bool first = true;
    for (const std::string &name : names) {
        const auto it =
            std::find_if(metrics.begin(), metrics.end(),
                         [&](const Metric &m) { return m.name == name; });
        if (it == metrics.end())
            continue;
        std::cout << (first ? "" : ", ") << "\"" << name
                  << "\": {\"value\": " << num(it->value)
                  << ", \"unit\": \"" << it->unit << "\"}";
        first = false;
    }
    std::cout << "}}" << std::endl;
}

Json
metricsJson(const std::vector<Metric> &ms)
{
    Json obj = Json::object();
    for (const Metric &m : ms) {
        Json v = Json::object();
        v["value"] = m.value;
        v["unit"] = m.unit;
        obj[m.name] = std::move(v);
    }
    return obj;
}

int
usage()
{
    std::cerr
        << "usage: cohersim_bench --workload {sweep|fleet|mixed} "
           "[--seed N] [--seconds S]\n"
           "                      [--trace [0|1]] [--json PATH] "
           "[--smoke] [--write-expected]\n"
           "       cohersim_bench compare DIR_A DIR_B\n";
    return 2;
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_next = i + 1 < argc;
        if (a == "--workload" && has_next) {
            o.workload = argv[++i];
        } else if (a == "--seed" && has_next) {
            o.seed = std::stoull(argv[++i]);
        } else if (a == "--seconds" && has_next) {
            o.seconds = std::stod(argv[++i]);
        } else if (a == "--json" && has_next) {
            o.jsonPath = argv[++i];
        } else if (a == "--trace") {
            o.trace = true;
            if (has_next && (std::string(argv[i + 1]) == "0" ||
                             std::string(argv[i + 1]) == "1")) {
                o.trace = std::string(argv[++i]) == "1";
            }
        } else if (a == "--smoke") {
            o.smoke = true;
        } else if (a == "--write-expected") {
            o.writeExpected = true;
        } else {
            std::cerr << "cohersim_bench: unknown argument " << a << "\n";
            return false;
        }
    }
    // A smoke run covers one round; the reference needs the whole plan.
    return !o.workload.empty() && !(o.writeExpected && o.smoke);
}

/**
 * Names of the metrics the JSON result line carries: BENCHMARK.json's
 * end_to_end list, or with --trace its per_layer list. cell_ms_p50 is
 * printed but left out: on sweep it falls where the cell-time
 * distribution is steepest, and its run-to-run spread (~9%) is three
 * times the throughput's.
 */
const std::vector<std::string> &
resultNames(bool traced)
{
    static const std::vector<std::string> untraced = {
        "cells_per_s", "sim_mcycles_per_s", "cell_ms_tail", "setup_s",
        "peak_rss_mb"};
    return traced ? resultLayerMetrics() : untraced;
}

int
runBenchmark(const Options &o)
{
    const std::unique_ptr<Workload> w = makeWorkload(o.workload);
    if (!w) {
        std::cerr << "cohersim_bench: unknown workload " << o.workload
                  << "\n";
        return usage();
    }
    logging_detail::quiet = true;
    pinToCurrentCpu();

    const double host_ref = hostRefMops();

    // Set-up time: the median of fresh set-ups, each timed in CPU time
    // and scaled by the host probe taken just before it, so one slow
    // repetition (page faults, a host hiccup) does not move it. At
    // least nine repetitions and 100 ms of set-up in all: mixed sets up
    // in about 0.4 ms, where nine repetitions leave the median noisy.
    std::vector<double> setup_s, setup_wall_s;
    double setup_cpu_ms = 0.0;
    while (o.smoke ? setup_s.empty()
                   : setup_s.size() < 9 || setup_cpu_ms < 100.0) {
        const double scale = probeRefMs / hostProbeMs();
        const Clock::time_point t0 = Clock::now();
        const double c0 = threadCpuMs();
        w->setup(o.seed, nullptr);
        const double cpu = threadCpuMs() - c0;
        setup_cpu_ms += cpu;
        setup_s.push_back(cpu / 1e3 * scale);
        setup_wall_s.push_back(msSince(t0) / 1e3);
    }

    const std::size_t plan = o.smoke ? w->roundSize() : w->planSize();
    const CellObservers none;
    // Untimed warm-up: the first cell pays for lazily built state
    // (registry tables, allocator arenas). It must reproduce cell 0.
    // A smoke run, which times nothing that matters, skips it.
    CellOutcome warm;
    if (!o.smoke)
        warm = runGuarded(*w, 0, none);

    const double min_ms = o.trace || o.smoke ? 0.0 : o.seconds * 1e3;
    const Pass plain = runPass(*w, plan, min_ms, none);

    Verdict v;
    v.add(plain, plan);
    if (!o.smoke && (warm.failed || warm.digest != plain.cells[0].digest))
        v.flag(0, "warm-up cell does not reproduce cell 0");

    std::vector<Metric> metrics;
    timingMetrics(*w, plain, metrics);
    metrics.push_back({"setup_s", median(setup_s), "s"});
    metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});

    if (o.writeExpected)
        writeExpected(*w, o.seed, plain, plan);
    const bool checked = checkExpected(*w, o.seed, plain, plan, v);

    std::vector<Metric> layers;
    if (o.trace) {
        TracedRun tr = runTraced(*w, o.seed, plan, plain);
        v.add(tr.pass, plan);
        const std::size_t offset = v.bad.size() - tr.pass.cells.size();
        for (std::size_t i = 0; i < plan; ++i) {
            if (tr.pass.cells[i].digest != plain.cells[i].digest) {
                v.flag(offset + i,
                       msgCat("cell ", i, " (", w->cellLabel(i),
                              ") traced digest differs from untraced"));
            }
        }
        layers = std::move(tr.metrics);
    }

    outcomeMetrics(*w, plain, plan, metrics);
    metrics.push_back(
        {"failed_frac",
         static_cast<double>(v.failed()) / static_cast<double>(v.attempted),
         "fraction"});

    const double wall_cps = static_cast<double>(plain.cells.size()) /
                            ((plain.wallMs - plain.probeWallMs) / 1e3);
    std::cout << "workload " << w->name() << " seed " << o.seed
              << (o.smoke ? " smoke" : "") << ": " << plain.cells.size()
              << " cells (" << plan << " in the plan) in "
              << num(plain.wallMs / 1e3) << " s on 1 worker\n";
    printMetrics(metrics);
    if (o.trace) {
        std::cout << "-- per-layer (traced pass) --\n";
        printMetrics(layers);
    }
    std::cout << "digest " << hex(combinedDigest(plain, plan)) << "\n"
              << "expected "
              << (checked ? "checked against " + expectedPath(w->name())
                          : std::string("none for this seed; "
                                        "determinism checks only"))
              << "\n"
              << "host_ref " << num(host_ref)
              << " Mops/s (context, not a metric)\n"
              << "host_speed " << num(median(plain.hostSpeed))
              << " (context: median probe speed; raw wall "
              << num(wall_cps) << " cells/s, set-up "
              << num(median(setup_wall_s)) << " s)\n";
    for (const std::string &p : v.problems)
        std::cout << "PROBLEM " << p << "\n";

    const bool correct = v.failed() == 0 && v.problems.empty();
    if (!o.jsonPath.empty()) {
        Json doc = Json::object();
        doc["schema"] = "cohersim.bench.v1";
        doc["workload"] = w->name();
        doc["seed"] = o.seed;
        doc["smoke"] = o.smoke;
        doc["trace"] = o.trace;
        doc["correct"] = correct;
        doc["attempted"] = v.attempted;
        doc["failed"] = v.failed();
        doc["host_ref_mops"] = host_ref;
        doc["host_speed"] = median(plain.hostSpeed);
        doc["wall_cells_per_s"] = wall_cps;
        doc["wall_setup_s"] = median(setup_wall_s);
        doc["digest"] = hex(combinedDigest(plain, plan));
        doc["metrics"] = metricsJson(metrics);
        if (o.trace)
            doc["per_layer"] = metricsJson(layers);
        writeJsonFile(o.jsonPath, doc);
    }

    std::vector<Metric> all = metrics;
    all.insert(all.end(), layers.begin(), layers.end());
    printResultLine(correct, v.attempted, v.failed(), all,
                    resultNames(o.trace));
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && std::string(argv[1]) == "compare") {
        if (argc != 4)
            return usage();
        return compareMain(argv[2], argv[3]);
    }
    Options o;
    try {
        if (!parseArgs(argc, argv, o))
            return usage();
    } catch (const std::exception &) {
        return usage();
    }
    try {
        return runBenchmark(o);
    } catch (const std::exception &e) {
        std::cerr << "cohersim_bench: " << e.what() << "\n";
        return 1;
    }
}
