#include "channel/fleet.hh"

#include <memory>
#include <optional>

#include "channel/vector.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "config/experiment_spec.hh"
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

/**
 * runExperiment's branch for a spec whose fleet.* axes ask for a
 * fleet (FleetSpec::enabled): every pair runs spec.toChannelConfig()
 * on one machine, with fleet.noise_agents co-tenant noise agents.
 * The safety timeout is always contention-derived
 * (ChannelConfig::deriveTimeout, margin channel.timeout_margin or 20
 * when unset), because co-resident pairs stretch every transmission.
 */
FleetReport
runFleet(const ExperimentSpec &spec, const CalibrationResult *cal)
{
    const ChannelConfig base = spec.toChannelConfig();
    const int pairs = static_cast<int>(spec.fleet.pairs);
    const int noise_agents = static_cast<int>(spec.fleet.noiseAgents);
    const Tick stagger = static_cast<Tick>(spec.fleet.staggerCycles);
    const std::vector<Scenario> mix = spec.fleet.scenarios();
    const std::size_t payload_bits = spec.payloadBits();
    fatal_if(pairs < 1, "a fleet needs >= 1 pair");
    // Every pair drives the same leakage vector (they probe the same
    // microarchitecture), so one calibration serves the fleet.
    MachineRig host(base, cal);
    Machine &machine = host.machine;
    // The fleet's own CC-Hunter monitor observes the host next to the
    // caller's taps, from before the first share. Declared after the
    // host, it unsubscribes before the machine's bus goes.
    CoherenceChannelDetector detector;
    detector.attach(machine.mem.trace(), base.system.numCores());
    host.spawnNoise(noise_agents);

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

    for (int k = 0; k < pairs; ++k) {
        const std::uint32_t id = static_cast<std::uint32_t>(k + 1);
        auto run = std::make_unique<PairRun>();
        const Scenario sc =
            mix.empty() ? base.scenario
                        : mix[static_cast<std::size_t>(k) % mix.size()];
        run->scenario = &scenarioInfo(sc);
        run->cfg = host.cfg;
        run->cfg.scenario = sc;
        run->vec = makeLeakageVector(base.vector);
        // Distinct per-pair share patterns: identical patterns would
        // let KSM merge co-resident pairs' pages with *each other*,
        // collapsing N channels onto one physical line.
        run->rig = std::make_unique<ExperimentRig>(
            machine, run->cfg, fleetCorePlan(base.system, k),
            run->scenario->csc, id,
            deriveSeed(base.system.seed ^ 0x6b5fca37, id));
        run->rig->startCrew(run->vec->localLoaders(*run->scenario),
                            run->vec->remoteLoaders(*run->scenario));
        shared_lines.push_back(run->rig->shared.paddr);
        // Payload from the pair's own seed stream (the + 1 mirrors
        // the single-pair CLI's payload seeding).
        Rng payload_rng(deriveSeed(base.system.seed + 1, id));
        run->payload = randomBits(payload_rng, payload_bits);
        runs.push_back(std::move(run));
    }
    host.deployDefences(shared_lines);

    std::vector<const SimThread *> spies;
    for (int k = 0; k < pairs; ++k) {
        PairRun *run = runs[static_cast<std::size_t>(k)].get();
        ExperimentRig &rig = *run->rig;
        const Tick offset = stagger * static_cast<Tick>(k);
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
    ChannelConfig derive = base;
    derive.noiseThreads = noise_agents;
    derive.coResidentPairs = pairs;
    const double margin =
        spec.timeoutMargin > 0.0 ? spec.timeoutMargin : 20.0;
    const Tick timeout = derive.deriveTimeout(payload_bits, margin) +
                         stagger * static_cast<Tick>(pairs);
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
