/**
 * @file
 * The experiment drivers. runTransmission runs one trojan/spy pair
 * through the chain cfg.phy.profile selects: raw modulation over the
 * leakage-vector plugin (channel/vector.hh), or the PHY session
 * (phy/phy_channel.cc: the framed FEC chains and the paper's
 * parity+NACK chain). runExperiment resolves a declarative
 * ExperimentSpec and routes it to runTransmission or to the
 * multi-tenant fleet orchestrator (channel/fleet.cc), returning one
 * sum-type result. These are the two public drivers.
 *
 * This sits at the top of the channel stack, one layer above the
 * config resolution it consumes.
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
    phy,     //!< one pair through a PHY session (phy.profile != raw)
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
 * Run one covert transmission of @p payload on one trojan/spy pair.
 *
 * cfg.phy.profile picks the chain: raw runs plain modulation over
 * cfg.vector; every other profile runs the PHY session, which
 * exists on the coherence vector only (a fatal error elsewhere;
 * ExperimentSpec::validate refuses such a spec first).
 *
 * @param cfg experiment configuration.
 * @param payload bits the trojan exfiltrates.
 * @param cal pre-computed calibration to reuse across a sweep;
 *            calibrated per cfg.vector when null.
 */
ChannelReport runTransmission(const ChannelConfig &cfg,
                              const BitString &payload,
                              const CalibrationResult *cal = nullptr);

/**
 * Resolve @p spec and run it end to end: a spec whose fleet.* axes
 * ask for a fleet (FleetSpec::enabled) runs the fleet, everything
 * else runTransmission.
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
