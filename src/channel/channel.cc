#include "channel/channel.hh"

#include "channel/vector.hh"
#include "common/logging.hh"
#include "detect/cchunter.hh"
#include "os/kernel.hh"
#include "prof/profiler.hh"

namespace csim
{

const char *
defenseName(Defense d)
{
    switch (d) {
      case Defense::none: return "none";
      case Defense::targetedNoise: return "targeted-noise";
      case Defense::ksmGuard: return "ksm-guard";
      case Defense::llcNotify: return "llc-notify";
    }
    return "?";
}

Tick
ChannelConfig::deriveTimeout(std::size_t payload_bits,
                             double margin) const
{
    const auto period =
        static_cast<double>(params.nominalSamplePeriod(system.timing));
    // Payload bits plus the leading/trailing boundary phases, then
    // the end-of-reception marker run (N out-of-band samples).
    const double expected =
        (static_cast<double>(payload_bits) + 2.0) *
            params.samplesPerBit() * period +
        (params.endN + 1) * period;
    // Fixed slack for startup costs outside the bit clock: KSM merge
    // attempts, copy-on-write faults, calibration warm-up loads.
    constexpr Tick startupSlack = 2'000'000;
    return static_cast<Tick>(margin * expected * contentionFactor()) +
           startupSlack;
}

CorePlan
CorePlan::standard(const SystemConfig &sys)
{
    fatal_if(sys.sockets < 2,
             "the covert-channel experiments need two sockets");
    fatal_if(sys.coresPerSocket < 4,
             "the covert-channel experiments need >= 4 cores per "
             "socket");
    CorePlan plan;
    plan.spy = sys.coreOf(0, 0);
    plan.controller = sys.coreOf(0, 3);
    plan.localLoaders = {sys.coreOf(0, 1), sys.coreOf(0, 2)};
    plan.remoteLoaders = {sys.coreOf(1, 0), sys.coreOf(1, 1)};
    // Noise floats over the cores the attack threads do not occupy
    // (the OS balances unpinned kernel-build jobs onto free cores);
    // beyond six threads the noise cores double up. The channel is
    // then degraded through memory-system contention, the mechanism
    // the paper identifies (§VIII-C), not through outright
    // starvation of pinned attack threads.
    for (int i = 4; i < sys.coresPerSocket; ++i)
        plan.noise.push_back(sys.coreOf(0, i));
    for (int i = 2; i < sys.coresPerSocket; ++i)
        plan.noise.push_back(sys.coreOf(1, i));
    // Beyond six threads the noise cores double up; because the
    // agents are duty-cycled (they block on I/O between bursts), two
    // agents per core nearly double that core's memory traffic,
    // pushing the shared uncore queue, DRAM channel and QPI link
    // towards saturation — the paper's observation that 8 co-located
    // kernel-build jobs visibly disturb every attack variant
    // (§VIII-C).
    return plan;
}

void
ExperimentRig::initProcesses()
{
    // Pair-suffixed process names keep `ps`-style listings readable
    // when one machine hosts dozens of adversary pairs.
    const std::string suffix =
        pairId == 0 ? std::string() : msgCat(".p", pairId);
    trojanProc = &machine.kernel.createProcess("trojan" + suffix);
    spyProc = &machine.kernel.createProcess("spy" + suffix);
}

void
ExperimentRig::initShared(Combo csc, std::uint64_t pattern_seed)
{
    // The vector decides what "shared state" means: the page-fault
    // channel needs no shared mapping at all (its plugin creates two
    // private mergeable pages), the dirty-state channel needs a
    // *writable* shared page (the trojan modulates the dirty bit, and
    // KSM sharing would COW-split on the first store), the coherence
    // and LRU channels use the classic read-only/KSM path.
    if (cfg.vector == VectorKind::pagefault)
        return;
    if (cfg.vector == VectorKind::dirty) {
        shared =
            establishWritableBlock(machine, *trojanProc, *spyProc);
    } else {
        shared = establishSharedBlock(machine, *trojanProc, *spyProc,
                                      cfg.sharing, pattern_seed);
    }
    // Adversary optimization: within the 64 lines of the shared
    // page, pick one homed on the socket where the communication
    // combo's loaders run, so re-establishment after each spy flush
    // fetches from local memory. The other vectors keep their
    // probes on the spy's socket, so they always pick a
    // socket-0-homed line — coherence-2bit included: it cycles
    // through all four combos whatever the scenario's csc.
    if (cfg.system.timing.numaInterleave && cfg.system.sockets > 1) {
        const SocketId want =
            cfg.vector == VectorKind::coherence &&
                    comboRemoteLoaders(csc) > 0
                ? 1
                : 0;
        const PAddr base = shared.paddr;
        for (unsigned off = 0; off < pageBytes; off += lineBytes) {
            const SocketId home = static_cast<SocketId>(
                ((base + off) / lineBytes) % cfg.system.sockets);
            if (home == want) {
                shared.trojanVa += off;
                shared.spyVa += off;
                shared.paddr += off;
                break;
            }
        }
    }
}

void
ExperimentRig::initCrew(int n_local, int n_remote)
{
    const std::vector<CoreId> local_cores(
        plan.localLoaders.begin(),
        plan.localLoaders.begin() + n_local);
    const std::vector<CoreId> remote_cores(
        plan.remoteLoaders.begin(),
        plan.remoteLoaders.begin() + n_remote);
    crew = std::make_unique<PlacerCrew>(machine.kernel, machine.sched,
                                        *trojanProc, local_cores,
                                        remote_cores, cfg.params);
}

std::string
ExperimentRig::counterPrefix() const
{
    return pairId == 0 ? std::string() : msgCat("pair", pairId, ".");
}

void
addChannelCounters(CounterRegistry &reg, const std::string &prefix,
                   const ChannelMetrics &metrics)
{
    reg.counter(prefix + "ch.bits_sent") = metrics.bitsSent;
    reg.counter(prefix + "ch.bits_received") = metrics.bitsReceived;
    reg.counter(prefix + "ch.nacks") = metrics.nacks;
    reg.counter(prefix + "ch.retransmits") = metrics.retransmits;
}

namespace
{

/**
 * The llc-notify defence is a hardware change: apply it to the
 * timing model before anything (calibration included) samples it.
 */
ChannelConfig
defendedConfig(const ChannelConfig &cfg_in)
{
    ChannelConfig cfg = cfg_in;
    if (cfg.defense == Defense::llcNotify)
        cfg.system.timing.llcNotifiedOfUpgrade = true;
    return cfg;
}

/**
 * The adversaries calibrate bands through self-measurement ahead of
 * time (paper §VII-B) — on a quiet scratch machine.
 */
CalibrationResult
learnCalibration(const ChannelConfig &cfg)
{
    ScopedSpan span("rig.calibrate");
    return makeLeakageVector(cfg.vector)->calibrate(cfg);
}

} // namespace

ExperimentRig::ExperimentRig(const ChannelConfig &cfg_in,
                             const CalibrationResult *cal_in,
                             int n_local, int n_remote, Combo csc)
    : cfg(defendedConfig(cfg_in)),
      ownCal_(cal_in ? CalibrationResult{} : learnCalibration(cfg)),
      owned_(std::make_unique<Machine>(cfg.system)),
      cal(cal_in ? *cal_in : ownCal_), machine(*owned_),
      plan(CorePlan::standard(cfg.system))
{
    // Subscribe the caller's recorder and taps before anything else
    // touches memory, so the captures include share establishment
    // (KSM scans, COW splits, the ch.share_established milestone).
    if (cfg.recorder)
        cfg.recorder->attach(machine.mem.trace(), cfg.system.numCores());
    for (BusTap *tap : cfg.taps)
        tap->attach(machine.mem.trace(), cfg.system.numCores());
    if (cfg.detector)
        cfg.detector->attach(machine.mem.trace());
    initProcesses();
    initShared(csc, cfg.system.seed ^ 0x6b5fca37);
    // Noise agents start first: the channel must operate against an
    // already-busy machine.
    spawnNoiseAgents(machine, cfg.noiseThreads, plan.noise, cfg.noise,
                     cfg.system.seed * 77 + 5);
    initCrew(n_local, n_remote);
    // Runtime defences (§VIII-E techniques 1 and 2). Technique 3 is
    // the timing-model change applied by defendedConfig.
    if (cfg.defense == Defense::targetedNoise) {
        // Monitor thread: watches the shared page from a spare core
        // and issues extra loads, converting E-state blocks to S
        // under the spy's feet.
        Process &monitor_proc =
            machine.kernel.createProcess("monitor");
        const VAddr watch = monitor_proc.mapPhysical(
            {pageAlign(shared.paddr)}, false);
        const VAddr line = watch + pageOffset(shared.paddr);
        machine.kernel.spawnThread(
            machine.sched, "monitor", cfg.system.coreOf(1, 3),
            monitor_proc, [line](ThreadApi api) -> Task {
                for (;;) {
                    co_await api.load(line);
                    co_await api.spin(900);
                }
            });
    }
    if (cfg.defense == Defense::ksmGuard &&
        cfg.sharing == SharingMode::ksm) {
        machine.kernel.enableKsmGuard();
    }
}

ExperimentRig::ExperimentRig(Machine &host,
                             const ChannelConfig &cfg_in,
                             const CorePlan &pair_plan, int n_local,
                             int n_remote, Combo csc,
                             std::uint32_t pair_id,
                             std::uint64_t pattern_seed)
    : cfg(cfg_in), cal(ownCal_), machine(host), plan(pair_plan),
      pairId(pair_id)
{
    fatal_if(pair_id == 0,
             "fleet pairs are numbered from 1 (0 marks the "
             "single-pair path)");
    // The machine's owner decides what observes its bus and how busy
    // the host is: no recorder/taps, no noise agents and no
    // machine-global defences are attached here — only this pair's
    // processes, shared block and loader crew.
    initProcesses();
    initShared(csc, pattern_seed);
    initCrew(n_local, n_remote);
}

ExperimentRig::~ExperimentRig()
{
    // An attached rig attached none of them: the machine's owner did.
    if (!owned_)
        return;
    if (cfg.detector)
        cfg.detector->detach();
    for (BusTap *tap : cfg.taps)
        tap->detach();
    if (cfg.recorder)
        cfg.recorder->detach();
}

bool
ExperimentRig::run(std::function<Task(ThreadApi)> trojan,
                   std::function<Task(ThreadApi)> spy,
                   const TrojanResult &phases, Finisher until)
{
    panic_if(!owned_, "an attached rig's pairs run under the "
                      "machine owner's scheduler");
    SimThread *trojan_thread = machine.kernel.spawnThread(
        machine.sched, "trojan.ctl", plan.controller, *trojanProc,
        std::move(trojan));
    SimThread *spy_thread = machine.kernel.spawnThread(
        machine.sched, "spy", plan.spy, *spyProc, std::move(spy));
    SimThread *finisher =
        until == Finisher::trojan ? trojan_thread : spy_thread;
    {
        ScopedSpan span("rig.run");
        const Tick run_start = machine.sched.now();
        machine.sched.runUntilFinished(finisher, cfg.timeout);
        span.addVirtual(machine.sched.now() - run_start);
    }
    crew->stopAll();

    // The sync and transmit phases interleave as coroutines inside
    // rig.run, so they cannot be wall-scoped; reconstruct their
    // virtual-cycle extents from the trojan's phase timestamps.
    if (Profiler::enabled()) {
        if (phases.syncEnd >= phases.syncStart)
            profRecord("rig.sync", 0,
                       phases.syncEnd - phases.syncStart);
        if (phases.txEnd >= phases.txStart)
            profRecord("rig.transmit", 0,
                       phases.txEnd - phases.txStart);
    }
    return finisher->finished;
}

} // namespace csim
