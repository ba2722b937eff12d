/**
 * @file
 * The one-call experiment dispatcher: `runExperiment(spec)` resolves
 * a declarative ExperimentSpec and routes it to the right driver —
 * the single-pair vector transmission (channel/vector.hh), the PHY
 * channel stack (phy/phy_channel.hh) or the multi-tenant fleet
 * orchestrator (channel/fleet.hh) — returning one sum-type result.
 *
 * This sits at the top of the channel stack, one layer above the
 * config resolution it consumes, and is the only place that routes a
 * run. The drivers below it stay callable directly for a raw config
 * (runVectorTransmission, runPhyTransmission, runFleet); each runs
 * exactly the kind it is named for.
 */

#ifndef COHERSIM_CHANNEL_EXPERIMENT_HH
#define COHERSIM_CHANNEL_EXPERIMENT_HH

#include "channel/channel.hh"
#include "channel/fleet.hh"
#include "config/experiment_spec.hh"

namespace csim
{

/** Which driver an ExperimentSpec resolved to. */
enum class ExperimentKind : std::uint8_t
{
    single,  //!< one pair, raw modulation (any leakage vector)
    phy,     //!< one pair through the framed FEC stack
    fleet,   //!< N concurrent pairs on one machine
};

/**
 * Everything one dispatched experiment produced. Both single-pair
 * kinds fill @ref channel (a PHY run's stage and session results in
 * its `phy` member); a fleet run fills @ref fleet. The branch @ref
 * kind does not name stays default-constructed.
 */
struct ExperimentResult
{
    ExperimentKind kind = ExperimentKind::single;
    ChannelReport channel;
    FleetReport fleet;

    /** Did the authoritative run finish before its safety stop? */
    bool
    completed() const
    {
        return kind == ExperimentKind::fleet ? fleet.completed
                                             : channel.completed;
    }
};

/**
 * Resolve @p spec and run it end to end.
 *
 * Dispatch order: fleet.pairs > 1 runs the fleet; a coherence-vector
 * spec with a PHY profile (PhyConfig::framed: a hamming profile or
 * the adaptive controller) runs the PHY stack; everything else runs
 * one plain vector transmission.
 *
 * @param spec the declarative experiment description.
 * @param cal pre-computed calibration to reuse across a sweep;
 *            calibrated per the spec's vector when null.
 * @param payload overrides spec.makePayload() when non-null (sweep
 *        benches transmit fixed reference patterns); ignored on the
 *        fleet path, where pair payloads are derived per pair.
 */
ExperimentResult runExperiment(const ExperimentSpec &spec,
                               const CalibrationResult *cal = nullptr,
                               const BitString *payload = nullptr);

} // namespace csim

#endif // COHERSIM_CHANNEL_EXPERIMENT_HH
