#include "channel/vector.hh"

#include "common/logging.hh"
#include "os/kernel.hh"
#include "prof/profiler.hh"

namespace csim
{

const char *
vectorName(VectorKind k)
{
    switch (k) {
      case VectorKind::coherence: return "coherence";
      case VectorKind::dirty: return "dirty";
      case VectorKind::lru: return "lru";
      case VectorKind::pagefault: return "pagefault";
      case VectorKind::coherence2bit: return "coherence-2bit";
    }
    return "?";
}

namespace
{

/**
 * The paper's coherence-state channel, ported onto the plugin seam.
 * Every hook forwards to the classic trojan/spy/calibration code so
 * the operation sequence — and with it every committed golden — is
 * bit-identical to the pre-plugin driver.
 */
class CoherenceVector final : public LeakageVector
{
  public:
    VectorKind kind() const override { return VectorKind::coherence; }

    CalibrationResult
    calibrate(const ChannelConfig &cfg) const override
    {
        return csim::calibrate(cfg.system, 400, cfg.params);
    }

    int
    localLoaders(const ScenarioInfo &sc) const override
    {
        return sc.localLoaders;
    }

    int
    remoteLoaders(const ScenarioInfo &sc) const override
    {
        return sc.remoteLoaders;
    }

    Task
    trojanTask(ThreadApi api, VectorRun &run) override
    {
        // Returns the classic coroutine directly (no wrapper frame):
        // the spawned body is the exact Task the pre-plugin driver
        // spawned.
        return trojanBody(api, *run.rig.crew, run.rig.shared.trojanVa,
                          run.scenario, run.cal, run.cfg.params,
                          run.cfg.system.timing, run.payload,
                          run.trojan);
    }

    Task
    spyTask(ThreadApi api, VectorRun &run) override
    {
        return spyBody(api, run.rig.shared.spyVa, run.scenario,
                       run.cal, run.cfg.params, run.spy,
                       run.collectTrace);
    }
};

} // namespace

std::unique_ptr<LeakageVector> makeDirtyVector();
std::unique_ptr<LeakageVector> makeLruVector();
std::unique_ptr<LeakageVector> makePagefaultVector();
std::unique_ptr<LeakageVector> makeCoherence2bitVector();

std::unique_ptr<LeakageVector>
makeLeakageVector(VectorKind kind)
{
    switch (kind) {
      case VectorKind::coherence:
        return std::make_unique<CoherenceVector>();
      case VectorKind::dirty: return makeDirtyVector();
      case VectorKind::lru: return makeLruVector();
      case VectorKind::pagefault: return makePagefaultVector();
      case VectorKind::coherence2bit: return makeCoherence2bitVector();
    }
    fatal("unknown vector kind ", static_cast<int>(kind));
}

/**
 * runTransmission's branch for phy.profile = raw: the vector
 * prepares, the SinglePairRig runs its trojan/spy bodies, and this
 * computes metrics.
 */
ChannelReport
runVectorTransmission(const ChannelConfig &cfg_in,
                      const BitString &payload,
                      const CalibrationResult *cal)
{
    const std::unique_ptr<LeakageVector> vec =
        makeLeakageVector(cfg_in.vector);
    const ScenarioInfo &scenario = scenarioInfo(cfg_in.scenario);
    SinglePairRig rig(cfg_in, cal, vec->localLoaders(scenario),
                      vec->remoteLoaders(scenario), scenario.csc);
    const ChannelConfig &cfg = rig.host.cfg;

    ChannelReport report;
    report.sent = payload;
    report.shared = rig.pair.shared;

    VectorRun run{cfg,        scenario,   rig.host.cal,
                  payload,    rig.pair,   report.trojan,
                  report.spy, cfg.collectTrace};
    vec->prepare(run);

    report.completed = rig.run(
        [&](ThreadApi api) { return vec->trojanTask(api, run); },
        [&](ThreadApi api) { return vec->spyTask(api, run); },
        report.trojan);

    ScopedSpan decode_span("rig.decode");
    report.received = report.spy.bits;
    report.metrics = rig.pair.score(
        report.sent, report.received, report.trojan.txStart,
        report.trojan.txEnd ? report.trojan.txEnd
                            : rig.host.machine.sched.now());
    report.counters = rig.host.counters();
    rig.pair.publish(report.counters, report.metrics);
    return report;
}

} // namespace csim
