/**
 * @file
 * Covert-channel experiment plumbing: the experiment configuration,
 * its report, and the rig that builds a machine, establishes shared
 * memory, spawns noise/trojan/spy and runs one trojan/spy pair. The
 * single-pair drivers on top of it are runVectorTransmission
 * (channel/vector.hh: every leakage vector, 2-bit symbols included)
 * and runPhyTransmission (phy/phy_channel.hh: the framed FEC chains
 * and the paper's parity+NACK chain); runExperiment
 * (channel/experiment.hh) routes a declarative spec to the right
 * one.
 */

#ifndef COHERSIM_CHANNEL_CHANNEL_HH
#define COHERSIM_CHANNEL_CHANNEL_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "channel/calibration.hh"
#include "channel/combo.hh"
#include "channel/metrics.hh"
#include "channel/noise.hh"
#include "channel/protocol.hh"
#include "channel/sharing.hh"
#include "channel/spy.hh"
#include "channel/trojan.hh"
#include "channel/vector_kind.hh"
#include "common/bit_string.hh"
#include "mem/params.hh"
#include "phy/phy_config.hh"
#include "phy/phy_result.hh"
#include "trace/counters.hh"
#include "trace/recorder.hh"
#include "trace/tap.hh"

namespace csim
{

class CoherenceChannelDetector;

/**
 * Deployed defence against the channel (paper §VIII-E). The first two
 * are software techniques the experiment rig activates at runtime;
 * the third is the hardware change modelled by
 * TimingParams::llcNotifiedOfUpgrade.
 */
enum class Defense : std::uint8_t
{
    none,
    /** A monitor thread re-loads the shared page, turning E into S. */
    targetedNoise,
    /** KsmGuard un-merges pages with suspicious flush rates. */
    ksmGuard,
    /** LLC learns of E->M upgrades and serves E-state reads itself. */
    llcNotify,
};

const char *defenseName(Defense d);

/** Configuration of one covert-channel experiment. */
struct ChannelConfig
{
    SystemConfig system;
    /**
     * Which leakage vector carries the bits (channel/vector.hh).
     * The coherence default keeps every classic code path; the
     * sibling vectors reuse the same rig, noise, defence, fleet and
     * detector machinery through the plugin seam.
     */
    VectorKind vector = VectorKind::coherence;
    Scenario scenario = Scenario::lexcC_lshB;
    ChannelParams params;
    SharingMode sharing = SharingMode::explicitShared;
    /** Co-located kernel-build noise threads (paper Fig. 9). */
    int noiseThreads = 0;
    NoiseConfig noise;
    /**
     * Trojan/spy pairs sharing the machine (>= 1). The single-pair
     * experiments leave this at 1; fleet runs set it so derived
     * timeouts account for cross-pair contention.
     */
    int coResidentPairs = 1;
    /** Defence deployed against the adversaries (§VIII-E). */
    Defense defense = Defense::none;
    /**
     * PHY channel stack selection (`phy.*`, src/phy). Under the
     * default legacy-parity profile runExperiment keeps every
     * classic raw-modulation path (runPhyTransmission runs it as
     * parity+NACK); with a hamming profile runExperiment routes the
     * transmission through the framed FEC stack.
     */
    PhyConfig phy;
    /** Record the spy's raw latency trace (paper Fig. 7). */
    bool collectTrace = false;
    /**
     * When set, the rig subscribes this recorder to the machine's
     * trace bus before shared-memory establishment, so the captured
     * stream covers the whole experiment (KSM merging included).
     * The recorder outlives the rig; drain it after the run.
     */
    TraceRecorder *recorder = nullptr;
    /**
     * Additional bus subscribers (run-health monitors, test probes)
     * attached exactly like the recorder: before share
     * establishment, detached when the rig dies. The taps outlive
     * the rig and keep their accumulated state.
     */
    std::vector<BusTap *> taps;
    /**
     * CC-Hunter-style detector watching the run (detect/cchunter).
     * Attached to the machine's trace bus alongside the recorder and
     * detached when the rig dies; its verdicts stay readable
     * afterwards. The defense matrix uses this to ask whether the
     * detector still fires when a randomized cache degrades the
     * channel itself.
     */
    CoherenceChannelDetector *detector = nullptr;
    /** Safety stop, in cycles (~300 ms of simulated time). */
    Tick timeout = 800'000'000ULL;

    /**
     * Safety timeout derived from the payload length and the
     * configured protocol timing, replacing per-bench magic
     * constants: the expected transmission time (payload plus
     * delimiters and the end-marker run, at the params' nominal
     * sample period) times @p margin, plus a fixed startup slack.
     * Dead operating points (the spy never locks on) then stop soon
     * after a live run would have finished instead of polling out a
     * one-size-fits-all constant.
     *
     * The expected time is scaled by contentionFactor(): a busy
     * machine stretches every protocol phase (queue waits, preempted
     * quanta), and a timeout derived for an idle machine makes heavy
     * runs die at the safety stop and report completed = false
     * instead of a measurable error rate.
     */
    Tick deriveTimeout(std::size_t payload_bits,
                       double margin = 10.0) const;

    /**
     * How much co-residency stretches the expected transmission
     * time: 1.0 on an idle machine, growing with the configured
     * noise threads and co-resident pairs. Noise agents are
     * duty-cycled (a fraction of a core each); another pair is six
     * pinned threads contending for the same uncore, so it weighs
     * more.
     */
    double
    contentionFactor() const
    {
        return 1.0 + 0.25 * noiseThreads +
               0.75 * (coResidentPairs > 1 ? coResidentPairs - 1 : 0);
    }
};

/**
 * Publish the per-channel counters of one transmission into @p reg,
 * namespaced by @p prefix: ch.bits_sent, ch.bits_received, ch.nacks,
 * ch.retransmits. The prefix is "" on the single-pair path and
 * "pairK." for fleet pair K, so two channels collected into one
 * registry publish disjoint names instead of silently summing into
 * each other's totals.
 */
void addChannelCounters(CounterRegistry &reg,
                        const std::string &prefix,
                        const ChannelMetrics &metrics);

/** Everything one transmission produced. */
struct ChannelReport
{
    BitString sent;
    BitString received;
    ChannelMetrics metrics;
    TrojanResult trojan;
    SpyResult spy;
    SharedBlock shared;
    /** Machine-wide counter totals, snapshotted after the run. */
    CounterRegistry counters;
    /** PHY-session outcome (runPhyTransmission); zero otherwise. */
    PhyResult phy;
    /** False if the run hit the safety timeout. */
    bool completed = false;
};

/**
 * Core placement plan shared by all experiment drivers, mirroring the
 * paper's pinning (spy on socket 0; trojan loaders on both sockets;
 * noise threads spread over the remaining cores, oversubscribing
 * loader cores once the free ones are exhausted).
 */
struct CorePlan
{
    CoreId spy;
    CoreId controller;
    std::vector<CoreId> localLoaders;   //!< spy-socket loader cores
    std::vector<CoreId> remoteLoaders;  //!< other-socket loader cores
    std::vector<CoreId> noise;          //!< noise placement order

    /** Build the standard plan for a machine configuration. */
    static CorePlan standard(const SystemConfig &sys);
};

/**
 * Common experiment plumbing shared by every leakage vector and
 * every PHY chain: machine, processes, shared block, noise agents
 * and the trojan's loader crew.
 *
 * On the single-pair path the rig also owns the run's lifecycle:
 * the constructor applies the llc-notify defence and calibrates,
 * run() spawns and runs the pair. A driver adds only its own setup,
 * coroutine bodies and decode.
 */
class ExperimentRig
{
  public:
    /** Which adversary thread's exit ends a single-pair run. */
    enum class Finisher : std::uint8_t
    {
        /** The spy stops at its end-of-reception marker. */
        spy,
        /** The spy loops until the trojan is done (parity+NACK). */
        trojan,
    };

    /**
     * Build a rig that owns its machine (the single-pair path).
     * The llc-notify defence is applied to the timing model first,
     * so calibration and machine both sample the defended hardware.
     *
     * @param cfg experiment configuration.
     * @param cal pre-computed calibration to reuse across a sweep;
     *        when null, cfg.vector calibrates on a scratch machine
     *        under the "rig.calibrate" span.
     * @param n_local local loader threads to spawn.
     * @param n_remote remote loader threads to spawn.
     * @param csc the communication combo; the adversaries pick the
     *        line within their shared page whose NUMA home matches
     *        the combo's socket, so its re-fetches after each spy
     *        flush avoid the cross-socket memory penalty.
     */
    ExperimentRig(const ChannelConfig &cfg,
                  const CalibrationResult *cal, int n_local,
                  int n_remote, Combo csc = Combo::localShared);

    /**
     * Attach to an externally owned @p host machine instead of
     * building one — the fleet orchestrator owns the machine and
     * places each pair by its own core plan. The owner also owns the
     * bus subscribers (recorder/taps), the noise agents and any
     * machine-global defence, so this mode attaches none of them;
     * only this pair's processes, shared block and loader crew are
     * created.
     *
     * @param host the shared machine; must outlive the rig.
     * @param cfg experiment configuration (system must match host).
     * @param plan per-pair core placement.
     * @param pair_id 1-based pair number; tags the pair's trace
     *        events and prefixes its counters.
     * @param pattern_seed seeds the shared-block content; must be
     *        distinct per pair, or KSM would merge co-resident
     *        pairs' pages with each other.
     */
    ExperimentRig(Machine &host, const ChannelConfig &cfg,
                  const CorePlan &plan, int n_local, int n_remote,
                  Combo csc, std::uint32_t pair_id,
                  std::uint64_t pattern_seed);

    /**
     * Detaches the config's recorder, taps and detector (if any)
     * from an owned machine's trace bus, which dies with the rig;
     * their captured state stays readable afterwards.
     */
    ~ExperimentRig();

    ExperimentRig(const ExperimentRig &) = delete;
    ExperimentRig &operator=(const ExperimentRig &) = delete;

    /** Counter-name prefix: "" single-pair, "pairK." for pair K. */
    std::string counterPrefix() const;

    /**
     * Run the pair on an owned machine: spawn @p trojan as
     * "trojan.ctl" on the controller core and @p spy as "spy" on the
     * spy core, run under the "rig.run" span until @p until's thread
     * finishes or cfg.timeout passes, stop the loader crew, then
     * record the "rig.sync" and "rig.transmit" phases from the
     * trojan's timestamps in @p phases.
     *
     * @return whether the finishing thread ended before the timeout.
     */
    bool run(std::function<Task(ThreadApi)> trojan,
             std::function<Task(ThreadApi)> spy,
             const TrojanResult &phases,
             Finisher until = Finisher::spy);

    /**
     * The configuration the pair runs under: the caller's, with the
     * llc-notify defence applied on the single-pair path.
     */
    const ChannelConfig cfg;

  private:
    /** The calibration an owning rig learned itself (else empty). */
    CalibrationResult ownCal_;
    /** Set when this rig owns its machine; null in attach mode.
     *  Declared before the reference so the owning constructor can
     *  materialize the machine first. */
    std::unique_ptr<Machine> owned_;

  public:
    /**
     * The bands the pair decodes with: the caller's calibration or
     * the one learned at construction. Empty in attach mode, where
     * the fleet owner calibrates once for every pair.
     */
    const CalibrationResult &cal;
    Machine &machine;
    CorePlan plan;
    Process *trojanProc = nullptr;
    Process *spyProc = nullptr;
    SharedBlock shared;
    std::unique_ptr<PlacerCrew> crew;
    /** Pair tag of this rig's adversaries (0: single-pair path). */
    std::uint32_t pairId = 0;

  private:
    void initProcesses();
    void initShared(Combo csc, std::uint64_t pattern_seed);
    void initCrew(int n_local, int n_remote);
};

} // namespace csim

#endif // COHERSIM_CHANNEL_CHANNEL_HH
