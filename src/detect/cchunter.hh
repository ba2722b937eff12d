/**
 * @file
 * Coherence covert-channel detector, in the spirit of CC-Hunter
 * (Chen & Venkataramani) and "Detecting Hardware Covert Timing
 * Channels" (Venkataramani et al.), which the paper's related work
 * (§IX) identifies as the contention-tracking defence family.
 *
 * The coherence-state channel has a loud microarchitectural
 * signature on the shared block: the spy's strictly periodic
 * cache-line flushes interleaved with reloads by *other* cores (the
 * trojan's loaders re-establishing the state). The detector
 * subscribes to the mem category of the machine's trace bus and, per
 * line, maintains
 *
 *   - a flush event train and the coefficient of variation of its
 *     inter-arrival times (periodicity),
 *   - the fraction of flush-to-flush gaps in which a different core
 *     touched the line (alternation — the ping-pong pattern of a
 *     two-party channel).
 *
 * A line with a long, highly periodic flush train that ping-pongs
 * with other cores is flagged. Ordinary workloads essentially never
 * flush shared lines at a fixed cadence, so the false-positive
 * surface is tiny (see tests/test_detect.cc).
 */

#ifndef COHERSIM_DETECT_CCHUNTER_HH
#define COHERSIM_DETECT_CCHUNTER_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "mem/memory_system.hh"
#include "trace/tap.hh"

namespace csim
{

/** Detection thresholds. */
struct DetectorParams
{
    /** Flush-train length required before a verdict. */
    std::uint64_t minFlushes = 48;
    /**
     * Maximum coefficient of variation (sd/mean) of the inter-flush
     * intervals still considered "periodic".
     */
    double maxIntervalCv = 0.35;
    /**
     * Minimum fraction of inter-flush gaps containing an access by
     * a core other than the flusher.
     */
    double minAlternation = 0.6;
    /** Inter-flush gaps longer than this reset the train (a pause,
     *  not a transmission). */
    Tick maxGap = 400'000;
    /** Sliding history per line (bounded memory). */
    std::size_t historyCap = 256;

    /**
     * @name Cross-vector train tracking
     *
     * The flush train above is the coherence- and dirty-state
     * channels' signature (both ride the spy's periodic clflush).
     * The sibling vectors (channel/vector.hh) leave different
     * recurrent patterns, scored by the same train machinery over
     * different event alphabets. Both trackers default off: the
     * default detector subscribes to mem events only and its event
     * counts — and every committed golden — stay untouched.
     */
    /** @{ */
    /**
     * Track per-line LLC back-invalidation trains (subscribes the
     * coherence category). The LRU-state channel evicts the target
     * line once per bit frame while the spy re-primes it in every
     * gap — a line periodically killed *and* re-fetched on a clock
     * grid. The trojan contends through other addresses of the same
     * set, so the flush-style ping-pong score is blind here; the
     * gap re-reference fraction (by any core) takes its place
     * against minAlternation.
     */
    bool trackEvictions = false;
    /**
     * Fold eviction-train keys modulo this many bytes (0 keeps
     * exact per-line trains). Eviction channels rotate victims
     * through a conflict set — the published back-invalidations
     * land on the *attacker's* pool lines in round-robin, so
     * per-line trains fragment below threshold. Folding by the
     * LLC's way span (numSets * lineBytes) pools a whole set's
     * back-invalidations into one train, which is also the natural
     * per-pair attribution key in a fleet (each pair contends in
     * its own set).
     */
    std::uint64_t evictionFoldBytes = 0;
    /** Back-invalidation train length required for a verdict. */
    std::uint64_t minEvictions = 32;
    /**
     * Periodicity ceiling for eviction trains. Manchester framing
     * spaces evictions at {0.5, 1, 1.5} frames (cv ~ 0.35 for a
     * random payload), looser than a flush clock.
     */
    double maxEvictionCv = 0.6;
    /**
     * Track per-process copy-on-write fault trains (subscribes the
     * os category). The page-fault channel's trojan splits its
     * mergeable page every slot and its spy every action slot —
     * fault periodicity alone scores these (no per-address access
     * stream exists to measure alternation against).
     */
    bool trackFaults = false;
    /**
     * Faults by one process closer together than this are one
     * logical split: a dedup scan racing the faulting store's own
     * latency window can re-merge the fresh copy (still content-
     * identical to the canonical) and re-fault it immediately.
     * Coalescing the burst keeps the train's intervals on the
     * channel's slot grid. Must stay below the slot period.
     */
    Tick faultCoalesce = 8'000;
    /** Fault-train length required for a verdict. */
    std::uint64_t minFaults = 24;
    /** Periodicity ceiling for fault trains. */
    double maxFaultCv = 0.6;
    /** @} */
};

/** Verdict for one monitored line. */
struct LineVerdict
{
    PAddr line = 0;
    bool suspicious = false;
    std::uint64_t flushes = 0;
    double intervalCv = 0.0;
    double alternation = 0.0;
    /** Time of the detection (first crossing), 0 if never. */
    Tick flaggedAt = 0;
};

/**
 * The detector. Attach with attach(), or list it in
 * ChannelConfig::taps; it subscribes to the mem category of the
 * given trace bus and unsubscribes on destruction.
 */
class CoherenceChannelDetector : public BusTap
{
  public:
    explicit CoherenceChannelDetector(DetectorParams params = {});
    ~CoherenceChannelDetector() override;

    CoherenceChannelDetector(const CoherenceChannelDetector &) =
        delete;
    CoherenceChannelDetector &
    operator=(const CoherenceChannelDetector &) = delete;

    /**
     * Subscribe to @p bus (detaching from any previous bus first).
     * Only mem-category events are delivered; the verdicts are per
     * line, so the core count is not needed.
     */
    void attach(TraceBus &bus, int num_cores) override;

    /** Drop the bus subscription, keeping accumulated verdicts. */
    void detach() override;

    /** Feed one event (attach() arranges this automatically). */
    void observe(const TraceEvent &ev);

    /** Lines currently flagged as covert-channel carriers. */
    std::vector<LineVerdict> suspiciousLines() const;

    /** Verdict for a specific line. */
    LineVerdict verdict(PAddr line) const;

    /**
     * Back-invalidation-train verdict for @p line (LRU-state
     * channel signature; needs params.trackEvictions). The
     * verdict's `flushes` counts evictions and `alternation` is the
     * gap re-reference fraction.
     */
    LineVerdict evictionVerdict(PAddr line) const;

    /**
     * Flagged COW-fault trains (page-fault channel signature; needs
     * params.trackFaults). Each verdict's `line` carries the pid and
     * `flushes` counts faults; `alternation` is always 0.
     */
    std::vector<LineVerdict> suspiciousFaultPids() const;

    /**
     * Machine-aggregate verdict: the same periodicity/alternation
     * scoring applied to the *combined* flush stream, address-blind.
     * This is the multi-tenant question — per-line trains stay
     * clean when N pairs interleave (each pair flushes its own
     * line), but an aggregate monitor without per-line state sees
     * the union of all trains, whose inter-flush intervals grow
     * irregular as tenants multiply. The returned verdict's `line`
     * is 0.
     */
    LineVerdict aggregateVerdict() const;

    /** True if any line has been flagged. */
    bool anySuspicious() const { return flagged_ > 0; }

    /** Total events observed (sanity/testing). */
    std::uint64_t eventsObserved() const { return events_; }

    const DetectorParams &params() const { return params_; }

  private:
    struct LineState
    {
        Tick lastFlushAt = 0;
        CoreId lastFlusher = invalidCore;
        bool otherCoreTouched = false;
        std::uint64_t flushes = 0;
        std::uint64_t alternations = 0;
        /** Recent inter-flush intervals (ring buffer). */
        std::vector<double> intervals;
        std::size_t intervalPos = 0;
        bool suspicious = false;
        Tick flaggedAt = 0;
    };

    /**
     * Score one train against its thresholds; @p min_alternation
     * < 0 skips the alternation requirement (fault trains).
     */
    void evaluate(LineState &state, Tick when,
                  std::uint64_t min_events, double max_cv,
                  double min_alternation, bool count_flagged = true);
    void feedEvent(LineState &state, const TraceEvent &ev);
    /** Eviction-train key for @p addr (line, optionally folded). */
    PAddr evictionKey(PAddr addr) const;
    static double intervalCv(const LineState &state);
    static LineVerdict verdictOf(const LineState &state, PAddr line);

    DetectorParams params_;
    std::unordered_map<PAddr, LineState> lines_;
    /** Per-line LLC back-invalidation trains (trackEvictions). */
    std::unordered_map<PAddr, LineState> evictions_;
    /** Per-pid COW-fault trains (trackFaults). */
    std::unordered_map<std::uint64_t, LineState> faults_;
    /** Address-blind union of every flush train (multi-tenant). */
    LineState aggregate_;
    TraceBus *bus_ = nullptr;
    int subId_ = 0;
    std::uint64_t events_ = 0;
    std::uint64_t flagged_ = 0;
    /**
     * Self-profiling sample countdown for observe() (fires per mem
     * event — too hot to wall-time every call). Per-detector, so the
     * sampled subset is deterministic at any host --jobs split.
     */
    std::uint32_t profCountdown_ = Profiler::armSample();
};

} // namespace csim

#endif // COHERSIM_DETECT_CCHUNTER_HH
