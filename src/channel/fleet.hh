/**
 * @file
 * Multi-tenant fleet experiments: one simulated machine hosting N
 * concurrent trojan/spy pairs plus M noise agents.
 *
 * The paper evaluates one pair on an otherwise idle host, but its
 * threat model is a shared cloud machine. runExperiment runs a spec
 * whose fleet.* axes ask for one (FleetSpec::enabled) through the
 * fleet orchestrator (fleet.cc), which hosts one `ExperimentRig` per
 * pair on one `MachineRig` (the single-pair path's machine
 * lifecycle: observers, noise, defences), with per-pair seeds,
 * per-pair core plans and staggered start offsets, then reports
 * per-pair accuracy/effectiveKbps alongside the CC-Hunter view of
 * the whole host — both the per-pair line verdicts and the
 * machine-aggregate (address-blind) verdict that answers "does the
 * detector still fire when N channels interleave?".
 *
 * Everything is deterministic: pair k's payload, share pattern and
 * scenario follow from the base seed and k alone, so a fleet run is
 * bit-identical however the host fans the surrounding sweep out.
 */

#ifndef COHERSIM_CHANNEL_FLEET_HH
#define COHERSIM_CHANNEL_FLEET_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "channel/channel.hh"
#include "detect/cchunter.hh"

namespace csim
{

/** One pair's slice of a fleet run. */
struct PairReport
{
    /** 1-based pair number; matches trace events and counters. */
    std::uint32_t pairId = 0;
    Scenario scenario = Scenario::lexcC_lshB;
    BitString sent;
    BitString received;
    /** metrics.pairId mirrors pairId above. */
    ChannelMetrics metrics;
    /** False if this pair's spy was still running at the timeout. */
    bool completed = false;
    /** The pair's shared line (its channel carrier). */
    PAddr sharedLine = 0;
    /** CC-Hunter verdict on this pair's line. */
    LineVerdict detect;
};

/** Everything one fleet run produced. */
struct FleetReport
{
    /** Per-pair results, ordered by pairId (not finish order). */
    std::vector<PairReport> pairs;
    /**
     * Machine-wide counters plus every pair's namespaced channel
     * counters ("pairK.ch.*").
     */
    CounterRegistry counters;
    /** Address-blind CC-Hunter verdict over the combined stream. */
    LineVerdict aggregate;
    /** Pairs whose own line the detector flagged. */
    int pairsFlagged = 0;
    /** True when every pair finished before the safety timeout. */
    bool completed = false;
    /** Virtual time the whole fleet took. */
    Tick durationCycles = 0;
};

/**
 * Core plan of fleet pair @p k: 4-core blocks on socket 0 (spy,
 * both local loaders, controller) and 2-core blocks on socket 1
 * (remote loaders), wrapping around once the socket is full — pairs
 * beyond the core budget oversubscribe attack cores and contend
 * through preemption, smaller fleets contend through the shared
 * uncore only. Pair 0's plan equals CorePlan::standard.
 */
CorePlan fleetCorePlan(const SystemConfig &sys, int k);

} // namespace csim

#endif // COHERSIM_CHANNEL_FLEET_HH
