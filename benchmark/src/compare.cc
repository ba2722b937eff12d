/**
 * @file
 * `cohersim_bench compare DIR_A DIR_B`: do two sets of runs agree?
 *
 * Reads every untraced, non-smoke result document (--json) in each
 * directory and, per workload and end-to-end metric, prints each
 * side's median and quartiles, the metric's bound and a verdict:
 *
 *  - agree: B's median is no worse than A's by more than the bound,
 *    and both sides' spreads (IQR / median) are within it;
 *  - better: the spread exceeds the bound but every B run reads
 *    better than every A run;
 *  - worse: B's median is worse than A's by more than the bound;
 *  - unresolved: the spread is wider than the bound, so "no change"
 *    cannot be claimed.
 *
 * Exact (simulated) metrics and the run digest must be bit-identical
 * between runs of the same seed. Exits 1 when any verdict is worse,
 * unresolved or differs, and 2 when a side has fewer than five runs of
 * a workload.
 */

#include <algorithm>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>

#include "bench.hh"

namespace bench
{

using namespace csim;

namespace
{

enum class Better : std::uint8_t
{
    higher,
    lower,
    exact,
};

/**
 * The benchmark's bounds: the share of A's median by which B may be
 * worse. BENCHMARK.json repeats the host-time ones for benchmark
 * harnesses.
 */
struct MetricDef
{
    const char *name;
    Better better;
    double bound;
};

const std::vector<MetricDef> &
metricDefs()
{
    static const std::vector<MetricDef> defs = {
        {"cells_per_s", Better::higher, 0.22},
        {"sim_mcycles_per_s", Better::higher, 0.22},
        {"cell_ms_p50", Better::lower, 0.22},
        {"cell_ms_tail", Better::lower, 0.24},
        {"setup_s", Better::lower, 0.25},
        {"peak_rss_mb", Better::lower, 0.05},
        {"failed_frac", Better::exact, 0.0},
        {"timeout_frac", Better::exact, 0.0},
        {"accuracy_mean", Better::exact, 0.0},
        {"effective_kbps_mean", Better::exact, 0.0},
        {"peak_kbps", Better::exact, 0.0},
        {"detected_frac", Better::exact, 0.0},
    };
    return defs;
}

constexpr std::size_t minRuns = 5;

/** Python statistics.quantiles(v, n=4), default exclusive method. */
std::vector<double>
quartiles(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n == 1)
        return {v[0], v[0], v[0]};
    const std::size_t m = n + 1;
    std::vector<double> q;
    for (std::size_t i = 1; i < 4; ++i) {
        std::size_t j = i * m / 4;
        j = std::clamp<std::size_t>(j, 1, n - 1);
        const double delta =
            static_cast<double>(i * m) - static_cast<double>(j * 4);
        q.push_back((v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0);
    }
    return q;
}

template <typename T>
using BySeed = std::vector<std::pair<std::uint64_t, T>>;

/** One directory's runs, by workload. */
struct Side
{
    /** workload -> metric -> (seed, value) */
    std::map<std::string, std::map<std::string, BySeed<double>>> values;
    /** workload -> (seed, digest of the plan's per-cell digests) */
    std::map<std::string, BySeed<std::string>> digests;
    std::map<std::string, std::size_t> runs;
};

Side
loadSide(const std::string &dir)
{
    Side side;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".json")
            continue;
        Json doc;
        try {
            doc = readJsonFile(entry.path().string());
        } catch (const std::exception &) {
            continue;
        }
        const Json *schema = doc.find("schema");
        const Json *smoke = doc.find("smoke");
        const Json *trace = doc.find("trace");
        const Json *workload = doc.find("workload");
        const Json *seed = doc.find("seed");
        const Json *metrics = doc.find("metrics");
        const Json *digest = doc.find("digest");
        if (!schema || schema->asString() != "cohersim.bench.v1" ||
            !smoke || smoke->asBool() || !trace || trace->asBool() ||
            !workload || !seed || !metrics || !digest) {
            continue;
        }
        const std::string w = workload->asString();
        const auto s = static_cast<std::uint64_t>(seed->asInt());
        ++side.runs[w];
        side.digests[w].emplace_back(s, digest->asString());
        for (const auto &[name, m] : metrics->entries())
            side.values[w][name].emplace_back(s, m.find("value")->asDouble());
    }
    return side;
}

std::vector<double>
valuesOf(const BySeed<double> &v)
{
    std::vector<double> out;
    for (const auto &[seed, x] : v)
        out.push_back(x);
    return out;
}

std::string
fmt(double v)
{
    std::ostringstream os;
    os << std::setprecision(5) << v;
    return os.str();
}

/** Verdict for a host-time metric (see the file comment). */
std::string
hostVerdict(const MetricDef &def, const std::vector<double> &a,
            const std::vector<double> &b, double &worse, double &spread)
{
    const std::vector<double> qa = quartiles(a), qb = quartiles(b);
    spread = std::max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1]);
    worse = def.better == Better::higher ? (qa[1] - qb[1]) / qa[1]
                                         : (qb[1] - qa[1]) / qa[1];
    if (spread > def.bound) {
        const bool all_better =
            def.better == Better::higher
                ? *std::min_element(b.begin(), b.end()) >
                      *std::max_element(a.begin(), a.end())
                : *std::max_element(b.begin(), b.end()) <
                      *std::min_element(a.begin(), a.end());
        return all_better ? "better" : "unresolved";
    }
    return worse > def.bound ? "worse" : "agree";
}

/** Exact values: identical for every seed both sides ran. */
template <typename T>
std::string
sameForEachSeed(const BySeed<T> &a, const BySeed<T> &b)
{
    std::map<std::uint64_t, T> ref;  // seed -> A's value
    for (const auto &[seed, v] : a) {
        const auto [it, inserted] = ref.emplace(seed, v);
        if (!inserted && it->second != v)
            return "differs";
    }
    bool common = false;
    for (const auto &[seed, v] : b) {
        const auto it = ref.find(seed);
        if (it == ref.end())
            continue;
        if (it->second != v)
            return "differs";
        common = true;
    }
    return common ? "agree" : "no common seed";
}

/** Exact metrics; failed_frac must be 0 in every run. */
std::string
exactVerdict(const MetricDef &def, const BySeed<double> &a,
             const BySeed<double> &b)
{
    if (std::string(def.name) != "failed_frac")
        return sameForEachSeed(a, b);
    for (const auto *side : {&a, &b}) {
        for (const auto &[seed, v] : *side) {
            if (v != 0.0)
                return "worse";
        }
    }
    return "agree";
}

void
printRow(const std::string &workload, const std::string &metric,
         const std::string &a, const std::string &b,
         const std::string &bound, const std::string &verdict)
{
    std::cout << std::left << std::setw(7) << workload << std::setw(21)
              << metric << std::setw(36) << a << std::setw(36) << b
              << std::setw(7) << bound << verdict << "\n";
}

std::string
quartileCell(const std::vector<double> &q)
{
    return fmt(q[1]) + " [" + fmt(q[0]) + ", " + fmt(q[2]) + "]";
}

bool
fails(const std::string &verdict)
{
    return verdict.rfind("agree", 0) != 0 &&
           verdict.rfind("better", 0) != 0 && verdict != "no common seed";
}

} // namespace

int
compareMain(const std::string &dir_a, const std::string &dir_b)
{
    Side a, b;
    try {
        a = loadSide(dir_a);
        b = loadSide(dir_b);
    } catch (const std::exception &e) {
        std::cerr << "compare: " << e.what() << "\n";
        return 2;
    }
    int status = 0;
    printRow("load", "metric", "A median [q1, q3]", "B median [q1, q3]",
             "bound", "verdict");
    for (const auto &[workload, metrics] : a.values) {
        if (!b.values.count(workload))
            continue;
        if (a.runs[workload] < minRuns || b.runs[workload] < minRuns) {
            std::cout << workload << ": fewer than " << minRuns
                      << " runs on a side (" << a.runs[workload] << ", "
                      << b.runs[workload] << ")\n";
            status = 2;
            continue;
        }
        for (const MetricDef &def : metricDefs()) {
            const auto ia = metrics.find(def.name);
            const auto &bm = b.values.at(workload);
            const auto ib = bm.find(def.name);
            if (ia == metrics.end() || ib == bm.end())
                continue;
            const std::vector<double> va = valuesOf(ia->second);
            const std::vector<double> vb = valuesOf(ib->second);
            std::string verdict;
            std::string bound = "exact";
            if (def.better == Better::exact) {
                verdict = exactVerdict(def, ia->second, ib->second);
            } else {
                double worse = 0, spread = 0;
                verdict = hostVerdict(def, va, vb, worse, spread);
                bound = fmt(def.bound);
                verdict += " (worse " + fmt(worse) + ", spread " +
                           fmt(spread) + ")";
            }
            if (fails(verdict) && status == 0)
                status = 1;
            printRow(workload, def.name, quartileCell(quartiles(va)),
                     quartileCell(quartiles(vb)), bound, verdict);
        }
        const std::string verdict =
            sameForEachSeed(a.digests[workload], b.digests[workload]);
        if (fails(verdict) && status == 0)
            status = 1;
        printRow(workload, "digest", "-", "-", "exact", verdict);
    }
    std::cout << (status == 0 ? "sets agree\n" : "sets disagree\n");
    return status;
}

} // namespace bench
