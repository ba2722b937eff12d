/**
 * @file
 * Covert-channel experiment plumbing: the experiment configuration,
 * its report, and the rigs that set up the shared machine
 * (MachineRig: observers, noise, defences) and each trojan/spy pair
 * on it (ExperimentRig: processes, shared block, crew, threads). The
 * drivers on top of them live in channel/experiment.hh:
 * runTransmission runs one pair through the chain phy.profile
 * selects, and runExperiment routes a declarative spec to it or to
 * the fleet.
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
#include "trace/tap.hh"

namespace csim
{

/**
 * Deployed defence against the channel (paper §VIII-E). The first two
 * are software techniques the MachineRig deploys at runtime;
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
     * PHY channel stack selection (`phy.*`, src/phy). The profile
     * picks the chain runTransmission runs: raw modulation (the
     * default, `raw`), else a PHY session (parity+NACK or framed
     * FEC).
     */
    PhyConfig phy;
    /** Record the spy's raw latency trace (paper Fig. 7). */
    bool collectTrace = false;
    /**
     * Observers of the run (a TraceRecorder, a CC-Hunter detector, a
     * run-health monitor, test probes). The MachineRig subscribes
     * them, in order, to the machine's trace bus before
     * shared-memory establishment, so their streams cover the whole
     * experiment (KSM merging included), and detaches them when it
     * dies. The taps outlive the rig and keep their accumulated
     * state: drain a recorder, read a detector's verdicts.
     */
    std::vector<BusTap *> taps;
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
    /** PHY-session outcome (phy.profile != raw); zero otherwise. */
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
 * The machine-wide half of every experiment: the host the
 * adversaries are co-resident on, set up once whether it carries one
 * trojan/spy pair or a fleet of them.
 *
 * The constructor applies the llc-notify defence to the timing model
 * (so calibration and machine both sample the defended hardware),
 * resolves the calibration, builds the machine and subscribes the
 * config's taps to its trace bus before anything touches memory, so
 * the captures include share establishment (KSM scans, COW splits,
 * the ch.share_established milestone). The destructor detaches them
 * again; their captured state stays readable afterwards.
 */
class MachineRig
{
  public:
    /**
     * @param cfg experiment configuration.
     * @param cal pre-computed calibration to reuse across a sweep or
     *        a fleet's pairs; when null, cfg.vector calibrates on a
     *        scratch machine.
     * @param calibrate_span profiler span wrapping that learned
     *        calibration; null records none.
     */
    MachineRig(const ChannelConfig &cfg, const CalibrationResult *cal,
               const char *calibrate_span = nullptr);
    ~MachineRig();

    MachineRig(const MachineRig &) = delete;
    MachineRig &operator=(const MachineRig &) = delete;

    /**
     * Start @p agents kernel-build noise agents over the standard
     * plan's spare cores. Called before the adversaries' threads:
     * the channel must operate against an already-busy machine.
     */
    void spawnNoise(int agents);

    /**
     * Deploy cfg.defense's runtime techniques (§VIII-E 1 and 2; 3 is
     * the timing change the constructor applied) once for the whole
     * host. The defender does not know which tenant is hostile, so
     * targeted noise watches every line in @p shared_lines: one
     * monitor thread round-robins over them with a
     * max(900 / n, 150)-cycle gap, each line still flipping E->S a
     * few times per bit period. The KSM guard deploys under KSM
     * sharing only.
     */
    void deployDefences(const std::vector<PAddr> &shared_lines);

    /** Machine-wide counter totals. */
    CounterRegistry counters() const;

    /** The caller's configuration with llc-notify applied. */
    const ChannelConfig cfg;

  private:
    /** The calibration learned at construction (else empty). */
    CalibrationResult learned_;
    /**
     * Built under the `rig.build` profiler span and destroyed under
     * `rig.teardown`, after the observers detach.
     */
    std::unique_ptr<Machine> machine_;

  public:
    /** The bands every pair decodes with. */
    const CalibrationResult &cal;
    Machine &machine;
};

/**
 * One trojan/spy pair on a MachineRig's machine: its processes,
 * shared block and loader crew, its two adversary threads and its
 * scored result. The caller sequences these steps around the
 * machine-wide ones, because setup order fixes every thread id and
 * with it the seeded outcome.
 */
class ExperimentRig
{
  public:
    /**
     * Create the pair's processes and establish its shared block.
     *
     * @param machine the host; must outlive the rig.
     * @param cfg the pair's configuration (the MachineRig's, or a
     *        per-pair copy of it); must outlive the rig.
     * @param plan the pair's core placement.
     * @param csc the communication combo; the adversaries pick the
     *        line within their shared page whose NUMA home matches
     *        the combo's socket, so its re-fetches after each spy
     *        flush avoid the cross-socket memory penalty.
     * @param pair_id 0 on the single-pair path, else the 1-based
     *        fleet pair number; tags the pair's threads and trace
     *        events and prefixes its counters.
     * @param pattern_seed seeds the shared-block content; must be
     *        distinct per pair, or KSM would merge co-resident
     *        pairs' pages with each other.
     */
    ExperimentRig(Machine &machine, const ChannelConfig &cfg,
                  const CorePlan &plan, Combo csc,
                  std::uint32_t pair_id, std::uint64_t pattern_seed);

    ExperimentRig(const ExperimentRig &) = delete;
    ExperimentRig &operator=(const ExperimentRig &) = delete;

    /** Start the trojan's loader crew on the plan's loader cores. */
    void startCrew(int n_local, int n_remote);

    /**
     * Spawn @p trojan as "trojan.ctl" on the controller core and
     * @p spy as "spy" on the spy core (".pK"-suffixed for fleet pair
     * K), both tagged with the pair id.
     */
    void spawn(std::function<Task(ThreadApi)> trojan,
               std::function<Task(ThreadApi)> spy);

    /**
     * Score a transmission that ran from @p tx_start to @p tx_end
     * (computeMetrics), tagged with this pair's id.
     */
    ChannelMetrics score(const BitString &sent,
                         const BitString &received, Tick tx_start,
                         Tick tx_end) const;

    /**
     * Publish @p metrics into @p counters as ch.bits_sent,
     * ch.bits_received, ch.nacks and ch.retransmits, prefixed by
     * counterPrefix(), so pairs collected into one registry publish
     * disjoint names instead of summing into each other's totals.
     */
    void publish(CounterRegistry &counters,
                 const ChannelMetrics &metrics) const;

    /** Counter-name prefix: "" single-pair, "pairK." for pair K. */
    std::string counterPrefix() const;

    const ChannelConfig &cfg;
    Machine &machine;
    CorePlan plan;
    /** Pair tag of this rig's adversaries (0: single-pair path). */
    std::uint32_t pairId = 0;
    Process *trojanProc = nullptr;
    Process *spyProc = nullptr;
    SharedBlock shared;
    std::unique_ptr<PlacerCrew> crew;
    SimThread *trojanThread = nullptr;
    SimThread *spyThread = nullptr;
};

/**
 * The single-pair lifecycle every single-pair driver runs: a
 * MachineRig hosting one ExperimentRig on the standard core plan.
 * The constructor sets up observers, the pair's processes and shared
 * block, noise, the crew and the defences, in that order; run()
 * spawns and runs the pair. A driver adds only its own setup,
 * coroutine bodies and decode.
 */
class SinglePairRig
{
  public:
    /** Which adversary thread's exit ends the run. */
    enum class Finisher : std::uint8_t
    {
        /** The spy stops at its end-of-reception marker. */
        spy,
        /** The spy loops until the trojan is done (parity+NACK). */
        trojan,
    };

    /**
     * @param cfg experiment configuration.
     * @param cal calibration to reuse; when null, cfg.vector
     *        calibrates under the "rig.calibrate" span.
     * @param n_local local loader threads to spawn.
     * @param n_remote remote loader threads to spawn.
     * @param csc the communication combo (see ExperimentRig).
     */
    SinglePairRig(const ChannelConfig &cfg,
                  const CalibrationResult *cal, int n_local,
                  int n_remote, Combo csc = Combo::localShared);

    /**
     * Spawn the pair, run under the "rig.run" span until @p until's
     * thread finishes or cfg.timeout passes, stop the loader crew,
     * then record the "rig.sync" and "rig.transmit" phases from the
     * trojan's timestamps in @p phases.
     *
     * @return whether the finishing thread ended before the timeout.
     */
    bool run(std::function<Task(ThreadApi)> trojan,
             std::function<Task(ThreadApi)> spy,
             const TrojanResult &phases,
             Finisher until = Finisher::spy);

    MachineRig host;
    ExperimentRig pair;
};

} // namespace csim

#endif // COHERSIM_CHANNEL_CHANNEL_HH
