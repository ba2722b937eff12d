#include "channel/fleet.hh"

#include <algorithm>
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
runFleet(const FleetConfig &cfg_in, const CalibrationResult *cal)
{
    FleetConfig cfg = cfg_in;
    fatal_if(cfg.pairs < 1, "a fleet needs >= 1 pair");
    // The llc-notify defence is a hardware change: apply it to the
    // timing model before anything (calibration included) samples it.
    if (cfg.base.defense == Defense::llcNotify)
        cfg.base.system.timing.llcNotifiedOfUpgrade = true;

    // Every pair drives the same leakage vector (they probe the same
    // microarchitecture), so one calibration serves the fleet.
    CalibrationResult local_cal;
    if (!cal) {
        local_cal = makeLeakageVector(cfg.base.vector)
                        ->calibrate(cfg.base);
        cal = &local_cal;
    }

    Machine machine(cfg.base.system);
    // Machine-wide observers first, so the captures include every
    // pair's share establishment.
    if (cfg.base.recorder) {
        cfg.base.recorder->attach(machine.mem.trace(),
                                  cfg.base.system.numCores());
    }
    for (BusTap *tap : cfg.base.taps)
        tap->attach(machine.mem.trace(), cfg.base.system.numCores());
    CoherenceChannelDetector detector(cfg.detector);
    detector.attach(machine.mem.trace());

    // Noise agents start first: the fleet operates against an
    // already-busy machine, like the single-pair rig.
    spawnNoiseAgents(machine, cfg.noiseAgents,
                     CorePlan::standard(cfg.base.system).noise,
                     cfg.base.noise,
                     cfg.base.system.seed * 77 + 5);

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
        SimThread *spyThread = nullptr;
    };
    std::vector<std::unique_ptr<PairRun>> runs;

    for (int k = 0; k < cfg.pairs; ++k) {
        const std::uint32_t id = static_cast<std::uint32_t>(k + 1);
        auto run = std::make_unique<PairRun>();
        const Scenario sc =
            cfg.scenarioMix.empty()
                ? cfg.base.scenario
                : cfg.scenarioMix[static_cast<std::size_t>(k) %
                                  cfg.scenarioMix.size()];
        run->scenario = &scenarioInfo(sc);
        run->cfg = cfg.base;
        run->cfg.scenario = sc;
        run->vec = makeLeakageVector(cfg.base.vector);
        // Distinct per-pair share patterns: identical patterns would
        // let KSM merge co-resident pairs' pages with *each other*,
        // collapsing N channels onto one physical line.
        run->rig = std::make_unique<ExperimentRig>(
            machine, run->cfg, fleetCorePlan(cfg.base.system, k),
            run->vec->localLoaders(*run->scenario),
            run->vec->remoteLoaders(*run->scenario),
            run->scenario->csc, id,
            deriveSeed(cfg.base.system.seed ^ 0x6b5fca37, id));
        // Payload from the pair's own seed stream (the + 1 mirrors
        // the single-pair CLI's payload seeding).
        Rng payload_rng(deriveSeed(cfg.base.system.seed + 1, id));
        run->payload = randomBits(payload_rng, cfg.payloadBits);
        runs.push_back(std::move(run));
    }

    // Machine-global software defences (§VIII-E techniques 1 and 2)
    // deploy once per host, not once per pair: the defender does not
    // know which tenant is hostile, so it watches every shared line.
    if (cfg.base.defense == Defense::targetedNoise) {
        Process &monitor_proc =
            machine.kernel.createProcess("monitor");
        std::vector<VAddr> lines;
        for (const auto &run : runs) {
            const PAddr paddr = run->rig->shared.paddr;
            const VAddr watch = monitor_proc.mapPhysical(
                {pageAlign(paddr)}, false);
            lines.push_back(watch + pageOffset(paddr));
        }
        // Round-robin over the watched lines at the single-pair
        // monitor's aggregate budget scaled to the tenancy, so each
        // line still flips E->S a few times per bit period.
        const Tick gap = std::max<Tick>(
            900 / static_cast<Tick>(lines.size()), 150);
        machine.kernel.spawnThread(
            machine.sched, "monitor",
            cfg.base.system.coreOf(1, 3), monitor_proc,
            [lines, gap](ThreadApi api) -> Task {
                for (std::size_t i = 0;; i = (i + 1) % lines.size()) {
                    co_await api.load(lines[i]);
                    co_await api.spin(gap);
                }
            });
    }
    if (cfg.base.defense == Defense::ksmGuard &&
        cfg.base.sharing == SharingMode::ksm) {
        machine.kernel.enableKsmGuard();
    }

    for (int k = 0; k < cfg.pairs; ++k) {
        PairRun *run = runs[static_cast<std::size_t>(k)].get();
        ExperimentRig &rig = *run->rig;
        const std::uint32_t id = rig.pairId;
        const Tick offset =
            cfg.staggerCycles * static_cast<Tick>(k);
        // Bind the pair's run context and let the vector stake out
        // its per-pair state (conflict sets, slot clocks, daemon
        // helpers) with the stagger offset as its epoch base.
        run->ctx.emplace(VectorRun{run->cfg, *run->scenario, *cal,
                                   run->payload, rig, run->trojan,
                                   run->spy});
        run->ctx->startAt = offset;
        run->vec->prepare(*run->ctx);
        SimThread *trojan_thread = machine.kernel.spawnThread(
            machine.sched, msgCat("trojan.ctl.p", id),
            rig.plan.controller, *rig.trojanProc,
            [run, offset](ThreadApi api) -> Task {
                if (offset > 0)
                    co_await api.spin(offset);
                co_await run->vec->trojanTask(api, *run->ctx);
            });
        trojan_thread->pairTag = id;
        run->spyThread = machine.kernel.spawnThread(
            machine.sched, msgCat("spy.p", id), rig.plan.spy,
            *rig.spyProc, [run, offset](ThreadApi api) -> Task {
                if (offset > 0)
                    co_await api.spin(offset);
                co_await run->vec->spyTask(api, *run->ctx);
            });
        run->spyThread->pairTag = id;
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
    machine.sched.run(timeout, [&runs] {
        for (const auto &run : runs) {
            if (!run->spyThread->finished)
                return false;
        }
        return true;
    });
    for (const auto &run : runs)
        run->rig->crew->stopAll();

    FleetReport report;
    report.durationCycles = machine.sched.now();
    report.completed = true;
    report.counters =
        collectCounters(machine, cfg.base.recorder);
    for (const auto &run : runs) {
        const ExperimentRig &rig = *run->rig;
        PairReport pr;
        pr.pairId = rig.pairId;
        pr.scenario = run->scenario->id;
        pr.sent = run->payload;
        pr.received = run->spy.bits;
        pr.completed = run->spyThread->finished;
        pr.sharedLine = rig.shared.paddr;
        pr.metrics = computeMetrics(
            pr.sent, pr.received, run->trojan.txStart,
            run->trojan.txEnd ? run->trojan.txEnd
                              : machine.sched.now(),
            cfg.base.system.timing);
        pr.metrics.pairId = rig.pairId;
        pr.detect = detector.verdict(rig.shared.paddr);
        if (pr.detect.suspicious)
            ++report.pairsFlagged;
        report.completed = report.completed && pr.completed;
        addChannelCounters(report.counters, rig.counterPrefix(),
                           pr.metrics);
        report.pairs.push_back(std::move(pr));
    }
    report.aggregate = detector.aggregateVerdict();

    // The machine (and its bus) dies with this frame; the caller's
    // observers outlive it and keep their captured state.
    for (BusTap *tap : cfg.base.taps)
        tap->detach();
    if (cfg.base.recorder)
        cfg.base.recorder->detach();
    return report;
}

} // namespace csim
