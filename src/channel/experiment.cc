#include "channel/experiment.hh"

#include "channel/vector.hh"
#include "phy/phy_channel.hh"
#include "prof/profiler.hh"

namespace csim
{

ExperimentResult
runExperiment(const ExperimentSpec &spec, const CalibrationResult *cal,
              const BitString *payload)
{
    ExperimentResult out;
    if (spec.fleet.pairs > 1) {
        ScopedSpan span("experiment.fleet");
        out.kind = ExperimentKind::fleet;
        out.fleet = runFleet(spec.toFleetConfig(), cal);
        return out;
    }
    const ChannelConfig cfg = spec.toChannelConfig();
    const BitString bits = payload ? *payload : spec.makePayload();
    if (cfg.vector == VectorKind::coherence && cfg.phy.framed()) {
        ScopedSpan span("experiment.phy");
        out.kind = ExperimentKind::phy;
        out.channel = runPhyTransmission(cfg, bits, cal);
        return out;
    }
    ScopedSpan span("experiment.single");
    out.kind = ExperimentKind::single;
    out.channel = runVectorTransmission(cfg, bits, cal);
    return out;
}

} // namespace csim
