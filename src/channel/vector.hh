/**
 * @file
 * The LeakageVector plugin interface: one covert channel = one
 * implementation of this seam.
 *
 * A vector supplies four things — a trojan primitive (how machine
 * state is modulated), a spy primitive (how it is timed/probed), a
 * calibration procedure (which bands to learn on a scratch machine)
 * and a symbol mapping (how timed probes become bits) — while the
 * surrounding machinery stays vector-agnostic: ExperimentRig builds
 * processes/shared state/loader crew, MachineRig deploys noise agents
 * and defences identically, fleet runs stagger any vector's pairs, and the
 * detector/obs layers watch the same trace bus.
 *
 * Band convention for non-coherence vectors: the coherence channel
 * indexes CalibrationResult::bands by Combo, the others use only two
 * bands — bands[0] is the *action* band (the latency the spy sees
 * when the trojan acted: dirty writeback, DRAM refill after an LRU
 * eviction, a COW fault) and bands[1] is the *idle* band. The
 * actionBand()/idleBand() helpers name that convention.
 *
 * Adding a vector: subclass LeakageVector, return it from
 * makeLeakageVector(), add the name to vector_kind and the registry
 * choice list. DESIGN.md section "Leakage-vector plugins" walks
 * through the contract.
 */

#ifndef COHERSIM_CHANNEL_VECTOR_HH
#define COHERSIM_CHANNEL_VECTOR_HH

#include <memory>

#include "channel/channel.hh"
#include "channel/vector_kind.hh"

namespace csim
{

/** Action-band accessor for the two-band vectors (see file docs). */
inline const LatencyBand &
actionBand(const CalibrationResult &cal)
{
    return cal.bands[0];
}

/** Idle-band accessor for the two-band vectors (see file docs). */
inline const LatencyBand &
idleBand(const CalibrationResult &cal)
{
    return cal.bands[1];
}

/**
 * Everything one trojan/spy pair's bodies need, assembled by the
 * raw-modulation driver (runTransmission) or the fleet orchestrator. The
 * referenced objects outlive the spawned coroutines.
 */
struct VectorRun
{
    const ChannelConfig &cfg;
    const ScenarioInfo &scenario;
    const CalibrationResult &cal;
    const BitString &payload;
    ExperimentRig &rig;
    TrojanResult &trojan;
    SpyResult &spy;
    /** Record the spy's raw samples (single-pair path only). */
    bool collectTrace = false;
    /**
     * Start offset of this pair (fleet stagger; 0 single-pair).
     * Slotted vectors derive their shared slot-clock epoch from it;
     * the coherence vector instead spins it off before its sync
     * phase.
     */
    Tick startAt = 0;
};

/**
 * One leakage vector. Instances are created per run (one per fleet
 * pair), so prepare() may stash per-run state (conflict sets, page
 * addresses, slot timing) in the object.
 */
class LeakageVector
{
  public:
    virtual ~LeakageVector() = default;

    virtual VectorKind kind() const = 0;
    const char *name() const { return vectorName(kind()); }

    /**
     * Learn this vector's latency bands by self-measurement on a
     * scratch machine built from @p cfg (paper §VII-B). Sweeps reuse
     * one result across points; the driver calls this only when the
     * caller did not pass a calibration in.
     */
    virtual CalibrationResult
    calibrate(const ChannelConfig &cfg) const = 0;

    /** Loader threads the vector wants on the spy's socket. */
    virtual int
    localLoaders(const ScenarioInfo &) const
    {
        return 0;
    }

    /** Loader threads the vector wants on the remote socket. */
    virtual int
    remoteLoaders(const ScenarioInfo &) const
    {
        return 0;
    }

    /**
     * Post-rig setup before the adversary threads spawn: build
     * conflict sets, create mergeable pages, spawn auxiliary
     * daemons. The coherence vector needs none of it.
     */
    virtual void prepare(VectorRun &) {}

    /**
     * The trojan coroutine. Must fill run.trojan (txStart/txEnd at
     * minimum) and publish the chTx* milestones.
     */
    virtual Task trojanTask(ThreadApi api, VectorRun &run) = 0;

    /**
     * The spy coroutine. Must fill run.spy (bits, rxStart/rxEnd) and
     * publish the chRx* milestones. The driver stops the run when
     * this thread finishes.
     */
    virtual Task spyTask(ThreadApi api, VectorRun &run) = 0;
};

/** Instantiate the plugin for a vector kind. */
std::unique_ptr<LeakageVector> makeLeakageVector(VectorKind kind);

} // namespace csim

#endif // COHERSIM_CHANNEL_VECTOR_HH
