/**
 * @file
 * Low-overhead hierarchical self-profiler.
 *
 * RAII scoped spans accumulate into per-thread span trees keyed by
 * name; a span's *path* is its name joined onto the enclosing span's
 * path ("runner.job/experiment.single/rig.run"), so the same code
 * measured from different callers stays attributed separately. Every
 * span records three columns:
 *
 *  - count: completed activations;
 *  - wallNs: monotonic-clock wall time (host-dependent, never
 *    deterministic);
 *  - vcycles: virtual-cycle deltas fed via ScopedSpan::addVirtual or
 *    profRecord (simulated time — deterministic, bit-identical for
 *    any host --jobs split because the per-thread trees merge by
 *    path with commutative integer sums).
 *
 * The profiler is process-global and off by default: every span
 * entry point checks one relaxed atomic and is a no-op while
 * disabled. Enable with Profiler::setEnabled(true) or the
 * COHERSIM_PROFILE environment variable (any value but "0").
 * Spans never touch simulator state — no RNG draws, no Tick
 * advancement — so every seeded output is bit-identical with
 * profiling on or off; tools/check_golden.sh can be re-run under
 * COHERSIM_PROFILE=1 to prove it.
 */

#ifndef COHERSIM_PROF_PROFILER_HH
#define COHERSIM_PROF_PROFILER_HH

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"

namespace csim
{

/** The three aggregated columns of one span path. */
struct SpanStats
{
    std::uint64_t count = 0;    //!< completed activations
    std::uint64_t wallNs = 0;   //!< host wall time (nondeterministic)
    std::uint64_t vcycles = 0;  //!< virtual cycles (deterministic)

    void
    merge(const SpanStats &o)
    {
        count += o.count;
        wallNs += o.wallNs;
        vcycles += o.vcycles;
    }
};

/** One aggregated span path in a snapshot. */
struct ProfileEntry
{
    std::string path;  //!< "/"-joined span names from the root
    int depth = 0;     //!< nesting depth (path component count - 1)
    SpanStats stats;
};

/**
 * One completed span occurrence kept for the Perfetto track export
 * (only recorded while track capture is on; see
 * Profiler::setCaptureTracks).
 */
struct ProfileTrackEvent
{
    std::string path;
    int thread = 0;           //!< registration index of the thread
    std::uint64_t startNs = 0; //!< monotonic, process-relative
    std::uint64_t durNs = 0;
    std::uint64_t vcycles = 0;
};

/** Point-in-time aggregation of every thread's span tree. */
struct ProfileSnapshot
{
    /** Depth-first tree order (parents before children). */
    std::vector<ProfileEntry> entries;
    /** Track events, in per-thread capture order. */
    std::vector<ProfileTrackEvent> tracks;
    /** Track events beyond the per-thread cap (bounded memory). */
    std::uint64_t trackDropped = 0;

    /** Entry lookup by exact path; null when absent. */
    const ProfileEntry *find(const std::string &path) const;

    /** Summed stats over every entry whose path ends in @p name. */
    SpanStats totalOf(const std::string &name) const;
};

/**
 * The process-wide registry. Threads register their span trees on
 * first use and fold them back in when they exit, so a snapshot sees
 * the work of runner workers that have already exited.
 *
 * snapshot()/reset() must only be called while no other thread is
 * actively inside a span (in practice: after runJobs returned, which
 * joins its workers).
 */
class Profiler
{
  public:
    static Profiler &instance();

    /** Runtime master switch (one relaxed load on every span site). */
    static bool
    enabled()
    {
        return enabledFlag_.load(std::memory_order_relaxed);
    }
    static void setEnabled(bool on);

    /** Keep per-occurrence track events for the Perfetto export. */
    static bool
    capturingTracks()
    {
        return tracksFlag_.load(std::memory_order_relaxed);
    }
    static void setCaptureTracks(bool on);

    /**
     * Sampling stride of the hot-path instrumentation (mem ops,
     * CC-Hunter observe): every stride-th call is measured. The
     * countdown lives in the instrumented object (per MemorySystem /
     * detector), not per thread, so the set of sampled operations —
     * and with it the deterministic count/vcycles columns — is
     * identical at any --jobs split. 512 keeps the amortized clock
     * reads under ~0.2 ns/op, within the <5% overhead budget of
     * even the ~9 ns/op L1-hit kernel.
     */
    static constexpr std::uint32_t sampleStride = 512;

    /** Track events kept per thread before counting drops. */
    static constexpr std::size_t trackCapPerThread = 65536;

    /**
     * Initial value for a SampledSpan-style countdown member: armed
     * to sampleStride when the profiler is enabled at construction
     * of the instrumented object, 0 — never fires — otherwise. The
     * armed/disarmed state is baked in at construction so the
     * per-operation check is one member load and a predictable
     * branch, with no global flag read on the hot path; an object
     * constructed while the profiler is off stays unsampled even if
     * profiling is enabled later.
     */
    static std::uint32_t
    armSample()
    {
        return enabled() ? sampleStride : 0;
    }

    /** Aggregate every thread's tree (see class comment re races). */
    ProfileSnapshot snapshot();

    /** Drop all recorded spans and track events, keep the flags. */
    void reset();

  private:
    Profiler() = default;

    static std::atomic<bool> enabledFlag_;
    static std::atomic<bool> tracksFlag_;
};

/**
 * RAII span: measures wall time from construction to destruction and
 * aggregates into the current thread's tree under the enclosing
 * span. A no-op (two relaxed loads, no allocation) while the
 * profiler is disabled. Must be strictly scoped per host thread —
 * never hold one across a coroutine suspension point.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Attribute @p dt simulated cycles to this span. */
    void
    addVirtual(Tick dt)
    {
        vcycles_ += dt;
    }

  private:
    void *node_ = nullptr;  //!< null when profiling was off at entry
    std::uint64_t startNs_ = 0;
    std::uint64_t vcycles_ = 0;
};

/**
 * Record one completed child span of the current scope post hoc —
 * for phases whose boundaries are only known after the fact (e.g.
 * the rig's sync/transmit phases, reconstructed from the trojan's
 * virtual timestamps after the coroutines finish). No-op while
 * disabled.
 */
void profRecord(const char *name, std::uint64_t wall_ns,
                std::uint64_t vcycles, std::uint64_t count = 1);

/**
 * Sampled RAII span for call sites too hot to measure every time:
 * decrements @p countdown and measures only the call where it hits
 * zero (then rearms it via Profiler::armSample). Initialize the
 * countdown member with Profiler::armSample(); a countdown of 0
 * means "never sample" and is left untouched, so the common case is
 * one load and a predictable branch. The countdown must live in the
 * instrumented object so sampling stays deterministic across host
 * thread splits.
 */
class SampledSpan
{
  public:
    SampledSpan(std::uint32_t &countdown, const char *name)
    {
        if (countdown == 0 || --countdown != 0)
            return;
        countdown = Profiler::armSample();
        if (countdown != 0)
            span_.emplace(name);
    }

    void
    addVirtual(Tick dt)
    {
        if (span_)
            span_->addVirtual(dt);
    }

  private:
    std::optional<ScopedSpan> span_;
};

} // namespace csim

#endif // COHERSIM_PROF_PROFILER_HH
