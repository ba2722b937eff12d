#include "channel/channel.hh"

#include <algorithm>
#include <optional>

#include "channel/vector.hh"
#include "common/logging.hh"
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
learnCalibration(const ChannelConfig &cfg, const char *span_name)
{
    std::optional<ScopedSpan> span;
    if (span_name)
        span.emplace(span_name);
    return makeLeakageVector(cfg.vector)->calibrate(cfg);
}

std::unique_ptr<Machine>
buildMachine(const SystemConfig &system)
{
    ScopedSpan span("rig.build");
    return std::make_unique<Machine>(system);
}

} // namespace

MachineRig::MachineRig(const ChannelConfig &cfg_in,
                       const CalibrationResult *cal_in,
                       const char *calibrate_span)
    : cfg(defendedConfig(cfg_in)),
      learned_(cal_in ? CalibrationResult{}
                      : learnCalibration(cfg, calibrate_span)),
      machine_(buildMachine(cfg.system)),
      cal(cal_in ? *cal_in : learned_), machine(*machine_)
{
    for (BusTap *tap : cfg.taps)
        tap->attach(machine.mem.trace(), cfg.system.numCores());
}

MachineRig::~MachineRig()
{
    for (BusTap *tap : cfg.taps)
        tap->detach();
    ScopedSpan span("rig.teardown");
    machine_.reset();
}

void
MachineRig::spawnNoise(int agents)
{
    spawnNoiseAgents(machine, agents, CorePlan::standard(cfg.system).noise,
                     cfg.noise, cfg.system.seed * 77 + 5);
}

void
MachineRig::deployDefences(const std::vector<PAddr> &shared_lines)
{
    if (cfg.defense == Defense::targetedNoise) {
        // Monitor thread: watches the shared lines from a spare core
        // and issues extra loads, converting E-state blocks to S
        // under the spies' feet.
        Process &monitor_proc =
            machine.kernel.createProcess("monitor");
        std::vector<VAddr> lines;
        for (const PAddr paddr : shared_lines) {
            const VAddr watch = monitor_proc.mapPhysical(
                {pageAlign(paddr)}, false);
            lines.push_back(watch + pageOffset(paddr));
        }
        const Tick gap = std::max<Tick>(
            900 / static_cast<Tick>(lines.size()), 150);
        machine.kernel.spawnThread(
            machine.sched, "monitor", cfg.system.coreOf(1, 3),
            monitor_proc, [lines, gap](ThreadApi api) -> Task {
                for (std::size_t i = 0;; i = (i + 1) % lines.size()) {
                    co_await api.load(lines[i]);
                    co_await api.spin(gap);
                }
            });
    }
    if (cfg.defense == Defense::ksmGuard &&
        cfg.sharing == SharingMode::ksm) {
        machine.kernel.enableKsmGuard();
    }
}

CounterRegistry
MachineRig::counters() const
{
    return collectCounters(machine);
}

ExperimentRig::ExperimentRig(Machine &host, const ChannelConfig &cfg_in,
                             const CorePlan &pair_plan, Combo csc,
                             std::uint32_t pair_id,
                             std::uint64_t pattern_seed)
    : cfg(cfg_in), machine(host), plan(pair_plan), pairId(pair_id)
{
    // Pair-suffixed process names keep `ps`-style listings readable
    // when one machine hosts dozens of adversary pairs.
    const std::string suffix =
        pairId == 0 ? std::string() : msgCat(".p", pairId);
    trojanProc = &machine.kernel.createProcess("trojan" + suffix);
    spyProc = &machine.kernel.createProcess("spy" + suffix);

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
ExperimentRig::startCrew(int n_local, int n_remote)
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

void
ExperimentRig::spawn(std::function<Task(ThreadApi)> trojan,
                     std::function<Task(ThreadApi)> spy)
{
    const std::string suffix =
        pairId == 0 ? std::string() : msgCat(".p", pairId);
    trojanThread = machine.kernel.spawnThread(
        machine.sched, "trojan.ctl" + suffix, plan.controller,
        *trojanProc, std::move(trojan));
    trojanThread->pairTag = pairId;
    spyThread = machine.kernel.spawnThread(
        machine.sched, "spy" + suffix, plan.spy, *spyProc,
        std::move(spy));
    spyThread->pairTag = pairId;
}

ChannelMetrics
ExperimentRig::score(const BitString &sent, const BitString &received,
                     Tick tx_start, Tick tx_end) const
{
    ChannelMetrics m = computeMetrics(sent, received, tx_start, tx_end,
                                      cfg.system.timing);
    m.pairId = pairId;
    return m;
}

void
ExperimentRig::publish(CounterRegistry &counters,
                       const ChannelMetrics &metrics) const
{
    const std::string prefix = counterPrefix();
    counters.counter(prefix + "ch.bits_sent") = metrics.bitsSent;
    counters.counter(prefix + "ch.bits_received") =
        metrics.bitsReceived;
    counters.counter(prefix + "ch.nacks") = metrics.nacks;
    counters.counter(prefix + "ch.retransmits") = metrics.retransmits;
}

std::string
ExperimentRig::counterPrefix() const
{
    return pairId == 0 ? std::string() : msgCat("pair", pairId, ".");
}

SinglePairRig::SinglePairRig(const ChannelConfig &cfg,
                             const CalibrationResult *cal, int n_local,
                             int n_remote, Combo csc)
    : host(cfg, cal, "rig.calibrate"),
      pair(host.machine, host.cfg, CorePlan::standard(host.cfg.system),
           csc, 0, host.cfg.system.seed ^ 0x6b5fca37)
{
    host.spawnNoise(host.cfg.noiseThreads);
    pair.startCrew(n_local, n_remote);
    host.deployDefences({pair.shared.paddr});
}

bool
SinglePairRig::run(std::function<Task(ThreadApi)> trojan,
                   std::function<Task(ThreadApi)> spy,
                   const TrojanResult &phases, Finisher until)
{
    pair.spawn(std::move(trojan), std::move(spy));
    const SimThread *finisher =
        until == Finisher::trojan ? pair.trojanThread : pair.spyThread;
    Scheduler &sched = host.machine.sched;
    {
        ScopedSpan span("rig.run");
        const Tick run_start = sched.now();
        sched.runUntilFinished(finisher, host.cfg.timeout);
        span.addVirtual(sched.now() - run_start);
    }
    pair.crew->stopAll();

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
