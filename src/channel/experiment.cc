#include "channel/experiment.hh"

#include "common/logging.hh"
#include "prof/profiler.hh"

namespace csim
{

// The two chains runTransmission picks between: the vector plugin
// path (channel/vector.cc) and the PHY session (phy/phy_channel.cc).
ChannelReport runVectorTransmission(const ChannelConfig &cfg,
                                    const BitString &payload,
                                    const CalibrationResult *cal);
ChannelReport runPhyTransmission(const ChannelConfig &cfg,
                                 const BitString &payload,
                                 const CalibrationResult *cal);
// runExperiment's fleet branch (channel/fleet.cc).
FleetReport runFleet(const ExperimentSpec &spec,
                     const CalibrationResult *cal);

ChannelReport
runTransmission(const ChannelConfig &cfg, const BitString &payload,
                const CalibrationResult *cal)
{
    if (cfg.phy.profile == PhyProfile::raw)
        return runVectorTransmission(cfg, payload, cal);
    fatal_if(cfg.vector != VectorKind::coherence, "phy.profile = ",
             phyProfileName(cfg.phy.profile),
             " runs only on channel.vector = coherence, not ",
             vectorName(cfg.vector));
    return runPhyTransmission(cfg, payload, cal);
}

ExperimentResult
runExperiment(const ExperimentSpec &spec, const CalibrationResult *cal,
              const BitString *payload)
{
    ExperimentResult out;
    if (spec.fleet.enabled()) {
        ScopedSpan span("experiment.fleet");
        out.kind = ExperimentKind::fleet;
        out.fleet = runFleet(spec, cal);
        return out;
    }
    const ChannelConfig cfg = spec.toChannelConfig();
    const BitString bits = payload ? *payload : spec.makePayload();
    const bool phy = cfg.phy.profile != PhyProfile::raw;
    ScopedSpan span(phy ? "experiment.phy" : "experiment.single");
    out.kind = phy ? ExperimentKind::phy : ExperimentKind::single;
    out.channel = runTransmission(cfg, bits, cal);
    return out;
}

} // namespace csim
