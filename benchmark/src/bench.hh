/**
 * @file
 * Shared pieces of cohersim_bench: the workload interface, per-cell
 * outcomes and their digests, the benchmark-side span recorder and the
 * bus taps the benchmark attaches from outside the simulator.
 *
 * The benchmark drives CoherSim only through its public entry points
 * (ConfigResolver / expandGrid, calibrate, runExperiment via runJobs,
 * ChannelConfig::taps and the src/prof spans), so every layer is
 * measured from outside and no simulator source changes.
 */

#ifndef COHERSIM_BENCH_BENCH_HH
#define COHERSIM_BENCH_BENCH_HH

#include <time.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cohersim/attack.hh"
#include "cohersim/harness.hh"
#include "cohersim/observe.hh"

namespace bench
{

using Clock = std::chrono::steady_clock;

inline double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/**
 * CPU time of @p clock (a thread or the process) in ms. The end-to-end
 * metrics time CPU rather than wall time: on a shared VM the hypervisor
 * takes the vCPU away in bursts — up to 31% of a 0.5 s window on the
 * development host — and that steal shows in wall time only.
 */
inline double
cpuMs(clockid_t clock)
{
    timespec t{};
    clock_gettime(clock, &t);
    return static_cast<double>(t.tv_sec) * 1e3 +
           static_cast<double>(t.tv_nsec) / 1e6;
}

inline double threadCpuMs() { return cpuMs(CLOCK_THREAD_CPUTIME_ID); }
inline double processCpuMs() { return cpuMs(CLOCK_PROCESS_CPUTIME_ID); }

/** FNV-1a over a canonical byte stream of one cell's outputs. */
class Hasher
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ULL;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    /** Bit pattern, so -0.0/NaN payloads and last-ulp drift all show. */
    void
    f64(double v)
    {
        std::uint64_t b = 0;
        std::memcpy(&b, &v, sizeof b);
        u64(b);
    }
    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
    void
    bits(const csim::BitString &b)
    {
        u64(b.size());
        bytes(b.data(), b.size());
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** One span the benchmark records around a call into a layer. */
struct SpanRecord
{
    std::string name;
    int parent = -1;        //!< index into Tracer::spans, -1 for roots
    std::int64_t cell = -1; //!< request id: the plan cell, -1 outside
    double startMs = 0.0;   //!< relative to the tracer's epoch
    double endMs = 0.0;
};

/**
 * In-memory span recorder. Spans are opened and closed strictly
 * nested on whichever thread is running the benchmark at the time
 * (main for setup, the single runner worker for cells — never both at
 * once), so a plain stack suffices.
 */
class Tracer
{
  public:
    int
    open(const std::string &name, std::int64_t cell)
    {
        SpanRecord s;
        s.name = name;
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.cell = cell;
        s.startMs = msSince(epoch_);
        spans.push_back(std::move(s));
        stack_.push_back(static_cast<int>(spans.size()) - 1);
        return stack_.back();
    }

    void
    close(int id)
    {
        spans[static_cast<std::size_t>(id)].endMs = msSince(epoch_);
        stack_.pop_back();
    }

    /** Summed duration of every span named @p name. */
    double totalMs(const std::string &name) const;

    std::vector<SpanRecord> spans;

  private:
    Clock::time_point epoch_ = Clock::now();
    std::vector<int> stack_;
};

/** RAII span; a no-op when the tracer is null (untraced runs). */
class Span
{
  public:
    Span(Tracer *t, const char *name, std::int64_t cell = -1) : t_(t)
    {
        if (t_)
            id_ = t_->open(name, cell);
    }
    ~Span()
    {
        if (t_)
            t_->close(id_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *t_;
    int id_ = -1;
};

/** Counts scheduler events: switches, preemptions, sleeps. */
class SchedCounter : public csim::BusTap
{
  public:
    ~SchedCounter() override { detach(); }

    void attach(csim::TraceBus &bus, int num_cores) override;
    void detach() override;

    std::uint64_t switches = 0;
    std::uint64_t preempts = 0;
    std::uint64_t sleeps = 0;

  private:
    csim::TraceBus *bus_ = nullptr;
    int sub_ = 0;
};

/** Host-time accounting of the health monitor's event handler. */
struct ObsStats
{
    std::uint64_t events = 0;
    std::uint64_t timed = 0;    //!< sampled handler calls
    double timedNs = 0.0;       //!< their summed host time
    double finalizeMs = 0.0;
};

/**
 * Forwards a run-health monitor's bus subscription so the benchmark
 * can count (and, while tracing, sample the host cost of) every
 * RunHealthMonitor::observe call. Subscribes the monitor's own
 * category mask, so the monitor sees exactly the stream it would see
 * attached directly.
 */
class HealthTap : public csim::BusTap
{
  public:
    HealthTap(csim::RunHealthMonitor &monitor, ObsStats &stats,
              bool timed)
        : monitor_(monitor), stats_(stats), timed_(timed)
    {
    }
    ~HealthTap() override { detach(); }

    void attach(csim::TraceBus &bus, int num_cores) override;
    void detach() override;

  private:
    csim::RunHealthMonitor &monitor_;
    ObsStats &stats_;
    bool timed_;
    std::uint32_t countdown_ = 1;
    csim::TraceBus *bus_ = nullptr;
    int sub_ = 0;
};

/** What the benchmark keeps of one simulated cell. */
struct CellOutcome
{
    std::uint64_t digest = 0;
    double ms = 0.0;            //!< host CPU time of the cell
    double refMs = 0.0;         //!< ms scaled to reference host speed
    double mcycles = 0.0;       //!< simulated cycles / 1e6
    int units = 1;              //!< transmissions: 1, or fleet pairs
    int timeouts = 0;           //!< units that hit the safety stop
    int detected = 0;           //!< fleet pairs CC-Hunter flagged
    double accuracySum = 0.0;   //!< over units
    double effKbpsSum = 0.0;    //!< over units
    bool failed = false;
    std::string error;
    /** Simulator counters of the cell. */
    csim::CounterRegistry counters;
};

/** Observers a traced pass hands to each cell. */
struct CellObservers
{
    Tracer *tracer = nullptr;
    SchedCounter *sched = nullptr;
    ObsStats *obs = nullptr;
};

/**
 * One benchmark workload: a fixed, seed-derived plan of cells grouped
 * into rounds, plus the shared set-up the cells need.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const char *name() const = 0;

    /**
     * Resolve the configs, run any shared calibration and build the
     * plan for @p seed. Called several times per run (set-up time is
     * a metric); each call rebuilds everything from scratch.
     */
    virtual void setup(std::uint64_t seed, Tracer *tracer) = 0;

    virtual std::size_t planSize() const = 0;
    virtual std::size_t roundSize() const = 0;

    /** Percentile reported as the cell-time tail (50 = none). */
    virtual double tailPercentile() const = 0;

    /** Simulate plan cell @p i, timing its runExperiment call. */
    virtual CellOutcome runCell(std::size_t i,
                                const CellObservers &observers) const = 0;

    /** Short label of cell @p i for the expected-digest file. */
    virtual std::string cellLabel(std::size_t i) const = 0;

    /**
     * Workload-specific exact metrics over one full plan pass
     * (e.g. the sweep's peak rate).
     */
    virtual void
    planMetrics(const std::vector<CellOutcome> &,
                std::vector<std::pair<std::string, double>> &) const
    {
    }
};

std::unique_ptr<Workload> makeWorkload(const std::string &name);

/**
 * Cell @p cell's system.seed: deriveSeed(seed, cell) folded into the
 * registry's [0, 1e18] range, so every cell spec still validates. The
 * seed also fixes the cell's payload (ExperimentSpec::makePayload).
 */
std::uint64_t cellSeed(std::uint64_t seed, std::size_t cell);

/** Hash every counter except trace.* (bus deliveries, tap-dependent). */
void hashCounters(Hasher &h, const csim::CounterRegistry &reg);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The cells one pass ran, in run order, and its timing. */
struct Pass
{
    std::vector<CellOutcome> cells;
    double wallMs = 0.0;       //!< whole pass, probes included
    double probeWallMs = 0.0;  //!< of that, spent in host probes
    /** Summed round CPU times, each scaled to reference speed. */
    double refMs = 0.0;
    /** Each round's host speed: probeRefMs / median of nearby probes. */
    std::vector<double> hostSpeed;
};

/**
 * Host-speed normalisation. On a shared VM the host's speed drifts by
 * 10-30% over minutes as co-tenants come and go, and raw times of
 * identical runs spread by as much (README.md has the measurements).
 * The benchmark therefore times a frozen probe — a miniature of the
 * simulator's hot path: an 8-way LRU tag store of 16384 sets (2 MB of
 * metadata) driven by a skewed xorshift address stream — just before
 * every round and every set-up, and scales a set-up's CPU time by
 * probeRefMs / probe CPU time, a round's by probeRefMs / the median of
 * the five probes around it. The probe shares the
 * simulator's sensitivity to core frequency and to cache capacity lost
 * to co-tenants, so scaled times estimate the same work on a host of
 * reference speed. It is benchmark code, not simulator code, so a
 * simulator speed-up moves scaled and raw times alike.
 */
inline constexpr double probeRefMs = 2.0;

/** One timed run of the probe (untimed refill first), in CPU ms. */
double hostProbeMs();

/** Run plan cell @p cell, turning an exception into a failed outcome. */
CellOutcome runGuarded(const Workload &w, std::size_t cell,
                       const CellObservers &observers);

/**
 * Run plan cells 0..plan-1 in rounds on one runner worker, then keep
 * cycling through the plan, round by round, until @p min_ms have
 * passed. One worker: on a shared 4-core host two workers widened the
 * run-to-run spread several-fold.
 */
Pass runPass(const Workload &w, std::size_t plan, double min_ms,
             const CellObservers &observers);

/** The traced pass and the per-layer metrics derived from it. */
struct TracedRun
{
    Pass pass;
    std::vector<Metric> metrics;
};

/**
 * Set the workload up again and run its plan with the profiler, the
 * benchmark's spans and a counting bus tap enabled; derive the
 * per-layer metrics against the untraced pass @p plain, print the
 * per-layer self-time table and write trace_<workload>.json.
 */
TracedRun runTraced(Workload &w, std::uint64_t seed, std::size_t plan,
                    const Pass &plain);

/** Per-layer metric names the JSON result line carries, in order. */
const std::vector<std::string> &resultLayerMetrics();

/** Linear-interpolated percentile (0..100) of @p v. */
double percentile(std::vector<double> v, double p);

/** `cohersim_bench compare DIR_A DIR_B`. */
int compareMain(const std::string &dir_a, const std::string &dir_b);

} // namespace bench

#endif // COHERSIM_BENCH_BENCH_HH
