/**
 * @file
 * The replacement-metadata (LRU-state) leakage vector (Xiong &
 * Szefer, "Leaking Information Through Cache LRU States").
 *
 * The spy primes one LLC set so the shared target line T is the
 * oldest (LRU) way: it loads T first, then assoc-1 same-set filler
 * lines. The trojan encodes an action by loading one fresh same-set
 * line of its own — the fill's victim is the set's LRU way, which
 * the prime made T. The spy's probe is a timed reload of T: a DRAM
 * refill means T was evicted (the trojan acted), an LLC hit means it
 * was not. The inclusive LLC's back-invalidation is what makes both
 * sides' private copies follow the LLC's decision.
 *
 * The whole protocol is *policy-sensitive by construction*: under
 * true LRU the victim is deterministic; under PLRU approximately so;
 * under random replacement the trojan's fill evicts T with
 * probability 1/assoc and under SRRIP the freshly primed fillers are
 * older (higher RRPV) than the re-referenced T — either way the
 * symbol collapses and the channel measurably dies. That is the
 * defense result `mem.replacement=random` buys for free.
 *
 * Symbols use Manchester-style framing: each payload bit occupies
 * two consecutive slots, action in slot A encodes '1', action in
 * slot B encodes '0', and endFrames consecutive frames with no
 * action end the message. Trojan and spy share a slot clock derived
 * from the run's start offset, so no sync preamble is needed.
 */

#include "channel/trace_hooks.hh"
#include "channel/vector.hh"
#include "common/logging.hh"
#include "os/kernel.hh"

namespace csim
{

namespace
{

/** Frames with no action in either slot that end the message. */
constexpr int endFrames = 3;

/**
 * Find @p count virtual lines in @p proc that currently map to the
 * same LLC set as @p target on @p socket, by mmapping a scan buffer
 * and probing Cache::setIndex through the page table — the only
 * approach that survives non-linear index functions (xor-fold,
 * remap, mirage).
 */
std::vector<VAddr>
findConflictLines(Machine &m, const SystemConfig &sys, Process &proc,
                  SocketId socket, PAddr target, std::size_t count)
{
    const Cache &llc = m.mem.llcOf(socket);
    const unsigned want = llc.setIndex(lineAlign(target));
    const std::uint64_t span =
        (count + 4) * sys.llc.numSets() * lineBytes;
    const VAddr buf = proc.mmap(span);
    std::vector<VAddr> lines;
    for (std::uint64_t off = 0;
         off < span && lines.size() < count; off += lineBytes) {
        if (llc.setIndex(lineAlign(proc.translate(buf + off))) ==
            want) {
            lines.push_back(buf + off);
        }
    }
    fatal_if(lines.size() < count,
             "lru vector: found only ", lines.size(), " of ", count,
             " conflict lines for LLC set ", want);
    return lines;
}

class LruVector final : public LeakageVector
{
  public:
    VectorKind kind() const override { return VectorKind::lru; }

    CalibrationResult
    calibrate(const ChannelConfig &cfg) const override
    {
        Machine m(cfg.system);
        Process &proc = m.kernel.createProcess("calibrator");
        const VAddr page = proc.mmap(pageBytes);
        const VAddr block = pickLocalLine(cfg.system, proc, page);
        const std::size_t fillers =
            static_cast<std::size_t>(cfg.system.llc.assoc) - 1;
        const std::vector<VAddr> prime = findConflictLines(
            m, cfg.system, proc, 0,
            lineAlign(proc.translate(block)), fillers);

        CalibrationResult out;
        out.hasRemote = cfg.system.sockets >= 2;
        constexpr int samples = 300;
        const ChannelParams &params = cfg.params;

        SimThread *observer = m.kernel.spawnThread(
            m.sched, "cal.observer", cfg.system.coreOf(0, 0), proc,
            [&](ThreadApi api) -> Task {
                // Resident probes: prime exactly like the attack
                // (target first, then assoc-1 fillers — enough to
                // push the target out of the private levels but keep
                // it LLC-resident), then timed reload.
                for (int i = 0; i < samples; ++i) {
                    co_await api.load(block);
                    for (const VAddr s : prime)
                        co_await api.load(s);
                    const Tick lat = co_await api.load(block);
                    out.samples[1].add(static_cast<double>(lat));
                }
                // Evicted probes: flush, then timed reload from
                // memory.
                for (int i = 0; i < samples; ++i) {
                    co_await api.flush(block);
                    co_await api.spin(200);
                    const Tick lat = co_await api.load(block);
                    out.samples[0].add(static_cast<double>(lat));
                }
            });
        m.sched.runUntilFinished(observer);
        panic_if(!observer->finished,
                 "lru-vector calibration did not complete");

        for (int i = 0; i < 2; ++i)
            out.bands[i] = bandOf(out.samples[i], params.bandWiden);
        out.dramBand = out.bands[0];
        out.dramSamples = out.samples[0];
        return out;
    }

    void
    prepare(VectorRun &run) override
    {
        Machine &m = run.rig.machine;
        const SystemConfig &sys = run.cfg.system;
        const PAddr target = run.rig.shared.paddr;
        const std::size_t fillers =
            static_cast<std::size_t>(sys.llc.assoc) - 1;
        spyPrime_ = findConflictLines(m, sys, *run.rig.spyProc, 0,
                                      target, fillers);
        trojanPool_ = findConflictLines(
            m, sys, *run.rig.trojanProc, 0, target, 4);

        // Slot layout in units of a padded memory round trip: the
        // prime (assoc+2 fills worst case) gets the first 18 units,
        // the trojan's single fill fires at 18u..20u, the probe at
        // 20u, and the slot closes at 22u.
        const Tick u = sys.timing.dramLat() + 250;
        actionAt_ = 18 * u;
        probeAt_ = 20 * u;
        slot_ = 22 * u;
        epoch_ = run.startAt + slot_;
    }

    Task
    trojanTask(ThreadApi api, VectorRun &run) override
    {
        TrojanResult &out = run.trojan;
        out.syncStart = out.syncEnd = api.now();
        co_await api.spinUntil(epoch_);
        out.txStart = api.now();
        chEvent(api, TraceEventType::chTxStart, run.payload.size());
        std::size_t pool = 0;
        for (std::size_t f = 0; f < run.payload.size() * 2; ++f) {
            const Tick t0 = epoch_ + static_cast<Tick>(f) * slot_;
            co_await api.spinUntil(t0 + actionAt_);
            const std::uint8_t bit = run.payload[f / 2];
            const bool act = bit ? (f % 2 == 0) : (f % 2 == 1);
            if (f % 2 == 0)
                chEvent(api, TraceEventType::chTxBit, bit, f / 2);
            if (act) {
                co_await api.load(
                    trojanPool_[pool % trojanPool_.size()]);
                ++pool;
            }
        }
        out.txEnd = api.now();
        chEvent(api, TraceEventType::chTxEnd, run.payload.size());
    }

    Task
    spyTask(ThreadApi api, VectorRun &run) override
    {
        SpyResult &out = run.spy;
        const VAddr target = run.rig.shared.spyVa;
        LatencyBand evicted = actionBand(run.cal);
        LatencyBand resident = idleBand(run.cal);
        {
            std::vector<LatencyBand *> used = {&evicted, &resident};
            claimGaps(used, run.cfg.params.gapClaim);
        }
        // A fixed maximum message length bounds reception when the
        // symbol collapses (random replacement turns most frames
        // into apparent actions and the end marker never comes).
        const std::size_t maxBits = run.payload.size() + 16;

        out.rxStart = epoch_;
        chEvent(api, TraceEventType::chRxStart);
        int idle_frames = 0;
        bool slot_a = false;
        for (std::size_t f = 0;; ++f) {
            const Tick t0 = epoch_ + static_cast<Tick>(f) * slot_;
            co_await api.spinUntil(t0);
            // Prime: target first, then the fillers — under LRU the
            // target ends up the set's oldest way.
            co_await api.load(target);
            for (const VAddr s : spyPrime_)
                co_await api.load(s);
            co_await api.spinUntil(t0 + probeAt_);
            const Tick lat = co_await api.load(target);
            if (run.collectTrace)
                out.trace.push_back(
                    SpySample{api.now(), lat, api.lastServed()});
            const auto cls = classifySample(
                static_cast<double>(lat), evicted, resident);
            const bool acted = cls == SampleClass::communication;
            if (acted && !out.sawTransmission)
                out.sawTransmission = true;
            if (f % 2 == 0) {
                slot_a = acted;
                continue;
            }
            if (!slot_a && !acted) {
                if (++idle_frames >= endFrames)
                    break;
                continue;
            }
            idle_frames = 0;
            const int bit = slot_a ? 1 : 0;
            chEvent(api, TraceEventType::chRxBit,
                    static_cast<std::uint64_t>(bit),
                    out.bits.size());
            out.bits.push_back(static_cast<std::uint8_t>(bit));
            if (out.bits.size() >= maxBits)
                break;
        }
        out.rxEnd = api.now();
        chEvent(api, TraceEventType::chRxEnd, out.bits.size());
    }

  private:
    /** Pick a socket-0-homed line inside @p page, like initShared. */
    static VAddr
    pickLocalLine(const SystemConfig &sys, Process &proc, VAddr page)
    {
        if (!sys.timing.numaInterleave || sys.sockets < 2)
            return page;
        const PAddr base = proc.translate(page);
        for (unsigned off = 0; off < pageBytes; off += lineBytes) {
            const SocketId home = static_cast<SocketId>(
                ((base + off) / lineBytes) % sys.sockets);
            if (home == 0)
                return page + off;
        }
        return page;
    }

    std::vector<VAddr> spyPrime_;
    std::vector<VAddr> trojanPool_;
    Tick slot_ = 0;
    Tick actionAt_ = 0;
    Tick probeAt_ = 0;
    Tick epoch_ = 0;
};

} // namespace

std::unique_ptr<LeakageVector>
makeLruVector()
{
    return std::make_unique<LruVector>();
}

} // namespace csim
