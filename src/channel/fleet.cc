#include "channel/fleet.hh"

#include <memory>
#include <optional>

#include "channel/vector.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "os/kernel.hh"

namespace csim
{

CorePlan
fleetCorePlan(const SystemConfig &sys, int k)
{
    fatal_if(sys.sockets < 2,
             "the covert-channel experiments need two sockets");
    fatal_if(sys.coresPerSocket < 4,
             "the covert-channel experiments need >= 4 cores per "
             "socket");
    CorePlan plan;
    // Whole 4-core blocks keep a pair's own threads off each other's
    // cores: pairs within the socket's block budget get disjoint
    // attack cores (contending only through the shared uncore, the
    // interesting regime), later pairs wrap around and oversubscribe.
    const int blocks = sys.coresPerSocket / 4;
    const int off = (k % blocks) * 4;
    plan.spy = sys.coreOf(0, off);
    plan.controller = sys.coreOf(0, off + 3);
    plan.localLoaders = {sys.coreOf(0, off + 1),
                         sys.coreOf(0, off + 2)};
    const int rblocks = sys.coresPerSocket / 2;
    const int roff = (k % rblocks) * 2;
    plan.remoteLoaders = {sys.coreOf(1, roff),
                          sys.coreOf(1, roff + 1)};
    // Noise floats over the standard plan's spare cores; with more
    // than one pair those overlap other pairs' blocks, which is the
    // point — co-tenant load does not respect anyone's pinning.
    plan.noise = CorePlan::standard(sys).noise;
    return plan;
}

FleetReport
runFleet(const FleetConfig &cfg, const CalibrationResult *cal)
{
    fatal_if(cfg.pairs < 1, "a fleet needs >= 1 pair");
    // Every pair drives the same leakage vector (they probe the same
    // microarchitecture), so one calibration serves the fleet.
    MachineRig host(cfg.base, cal);
    Machine &machine = host.machine;
    // The fleet's own CC-Hunter monitor observes the host next to the
    // caller's taps, from before the first share. Declared after the
    // host, it unsubscribes before the machine's bus goes.
    CoherenceChannelDetector detector(cfg.detector);
    detector.attach(machine.mem.trace(), cfg.base.system.numCores());
    host.spawnNoise(cfg.noiseAgents);

    // Per-pair state needs stable addresses: the spawned coroutines
    // hold pointers into it for the whole run.
    struct PairRun
    {
        /** Per-pair resolved config; VectorRun keeps a reference. */
        ChannelConfig cfg;
        /** This pair's plugin instance (vectors carry run state). */
        std::unique_ptr<LeakageVector> vec;
        std::unique_ptr<ExperimentRig> rig;
        const ScenarioInfo *scenario = nullptr;
        BitString payload;
        TrojanResult trojan;
        SpyResult spy;
        /** Bound after rig + payload exist; stable for the run. */
        std::optional<VectorRun> ctx;
    };
    std::vector<std::unique_ptr<PairRun>> runs;
    std::vector<PAddr> shared_lines;

    for (int k = 0; k < cfg.pairs; ++k) {
        const std::uint32_t id = static_cast<std::uint32_t>(k + 1);
        auto run = std::make_unique<PairRun>();
        const Scenario sc =
            cfg.scenarioMix.empty()
                ? cfg.base.scenario
                : cfg.scenarioMix[static_cast<std::size_t>(k) %
                                  cfg.scenarioMix.size()];
        run->scenario = &scenarioInfo(sc);
        run->cfg = host.cfg;
        run->cfg.scenario = sc;
        run->vec = makeLeakageVector(cfg.base.vector);
        // Distinct per-pair share patterns: identical patterns would
        // let KSM merge co-resident pairs' pages with *each other*,
        // collapsing N channels onto one physical line.
        run->rig = std::make_unique<ExperimentRig>(
            machine, run->cfg, fleetCorePlan(cfg.base.system, k),
            run->scenario->csc, id,
            deriveSeed(cfg.base.system.seed ^ 0x6b5fca37, id));
        run->rig->startCrew(run->vec->localLoaders(*run->scenario),
                            run->vec->remoteLoaders(*run->scenario));
        shared_lines.push_back(run->rig->shared.paddr);
        // Payload from the pair's own seed stream (the + 1 mirrors
        // the single-pair CLI's payload seeding).
        Rng payload_rng(deriveSeed(cfg.base.system.seed + 1, id));
        run->payload = randomBits(payload_rng, cfg.payloadBits);
        runs.push_back(std::move(run));
    }
    host.deployDefences(shared_lines);

    std::vector<const SimThread *> spies;
    for (int k = 0; k < cfg.pairs; ++k) {
        PairRun *run = runs[static_cast<std::size_t>(k)].get();
        ExperimentRig &rig = *run->rig;
        const Tick offset =
            cfg.staggerCycles * static_cast<Tick>(k);
        // Bind the pair's run context and let the vector stake out
        // its per-pair state (conflict sets, slot clocks, daemon
        // helpers) with the stagger offset as its epoch base.
        run->ctx.emplace(VectorRun{run->cfg, *run->scenario, host.cal,
                                   run->payload, rig, run->trojan,
                                   run->spy});
        run->ctx->startAt = offset;
        run->vec->prepare(*run->ctx);
        rig.spawn(
            [run, offset](ThreadApi api) -> Task {
                if (offset > 0)
                    co_await api.spin(offset);
                co_await run->vec->trojanTask(api, *run->ctx);
            },
            [run, offset](ThreadApi api) -> Task {
                if (offset > 0)
                    co_await api.spin(offset);
                co_await run->vec->spyTask(api, *run->ctx);
            });
        spies.push_back(rig.spyThread);
    }

    // The safety timeout accounts for the whole fleet's contention
    // plus the staggered tail-pair start.
    ChannelConfig derive = cfg.base;
    derive.noiseThreads = cfg.noiseAgents;
    derive.coResidentPairs = cfg.pairs;
    const Tick timeout =
        (cfg.timeoutMargin > 0.0
             ? derive.deriveTimeout(cfg.payloadBits,
                                    cfg.timeoutMargin)
             : cfg.base.timeout) +
        cfg.staggerCycles * static_cast<Tick>(cfg.pairs);
    machine.sched.runUntilFinished(spies, timeout);
    for (const auto &run : runs)
        run->rig->crew->stopAll();

    FleetReport report;
    report.durationCycles = machine.sched.now();
    report.completed = true;
    report.counters = host.counters();
    for (const auto &run : runs) {
        const ExperimentRig &rig = *run->rig;
        PairReport pr;
        pr.pairId = rig.pairId;
        pr.scenario = run->scenario->id;
        pr.sent = run->payload;
        pr.received = run->spy.bits;
        pr.completed = rig.spyThread->finished;
        pr.sharedLine = rig.shared.paddr;
        pr.metrics = rig.score(pr.sent, pr.received,
                               run->trojan.txStart,
                               run->trojan.txEnd ? run->trojan.txEnd
                                                 : machine.sched.now());
        pr.detect = detector.verdict(rig.shared.paddr);
        if (pr.detect.suspicious)
            ++report.pairsFlagged;
        report.completed = report.completed && pr.completed;
        rig.publish(report.counters, pr.metrics);
        report.pairs.push_back(std::move(pr));
    }
    report.aggregate = detector.aggregateVerdict();
    return report;
}

} // namespace csim
