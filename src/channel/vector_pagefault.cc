/**
 * @file
 * The page-fault leakage vector: copy-on-write fault timing through
 * the kernel's memory deduplication (Swaminathan et al. lineage;
 * CAIN/flip-feng-shui style KSM abuse repurposed as a covert
 * channel).
 *
 * No shared mapping exists. Trojan and spy each own one private
 * *mergeable* page. The spy keeps its page's content on a pattern
 * schedule both sides can compute (P(seed, slot)); the trojan
 * encodes an action by rewriting its own page to P(seed, slot) —
 * the next ksmd scan finds the duplicate, merges the two pages and
 * write-protects both. The spy's probe is a *timed store* to its own
 * page: a copy-on-write fault (cowFaultLat, milliseconds-scale on
 * real hardware) means the pages had been merged — the trojan acted;
 * a plain store hit means they had not. After probing, the spy
 * rewrites its page to the next slot's pattern.
 *
 * The trojan opens every slot with an untimed store of its own,
 * absorbing the COW split left over when the previous slot merged
 * (writeData is a functional write-through and must never land on a
 * merged frame). A ksmd daemon thread scans three times per slot, so
 * any trojan-write-to-spy-probe window — whatever its phase against
 * the daemon, which matters for staggered fleet pairs — contains at
 * least one scan.
 *
 * This protocol needs KSM's real unstable-tree behavior: pages that
 * are merely *candidates* (no duplicate found yet) must stay
 * writable, or every scan would write-protect the spy's page and the
 * probe would fault in every slot regardless of the trojan.
 *
 * Symbols use the same Manchester framing as the LRU vector: two
 * slots per bit, action in slot A encodes '1', in slot B '0', and
 * endFrames action-free frames end the message.
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

/** The shared content schedule: page pattern for slot @p f. */
std::vector<std::uint8_t>
slotPattern(std::uint64_t seed, std::uint64_t f)
{
    Rng rng(seed ^ (f + 1) * 0x9e3779b97f4a7c15ULL);
    std::vector<std::uint8_t> data(pageBytes);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());
    return data;
}

class PagefaultVector final : public LeakageVector
{
  public:
    VectorKind kind() const override
    {
        return VectorKind::pagefault;
    }

    CalibrationResult
    calibrate(const ChannelConfig &cfg) const override
    {
        Machine m(cfg.system);
        Process &peer = m.kernel.createProcess("cal.peer");
        Process &proc = m.kernel.createProcess("cal.observer");
        const VAddr peerVa = peer.mmap(pageBytes);
        const VAddr probeVa = proc.mmap(pageBytes);
        peer.madviseMergeable(peerVa, pageBytes);
        proc.madviseMergeable(probeVa, pageBytes);

        CalibrationResult out;
        out.hasRemote = cfg.system.sockets >= 2;
        constexpr int samples = 300;
        const ChannelParams &params = cfg.params;
        const std::uint64_t seed = cfg.system.seed ^ 0x7fa017c5;

        SimThread *observer = m.kernel.spawnThread(
            m.sched, "cal.observer", cfg.system.coreOf(0, 0), proc,
            [&](ThreadApi api) -> Task {
                // Faulted probes: make the pages identical, scan
                // (merge + write-protect), timed store — exactly the
                // attack's action slot, fresh frame fill included.
                for (int i = 0; i < samples; ++i) {
                    const auto content =
                        slotPattern(seed, static_cast<unsigned>(i));
                    peer.writeData(peerVa, content);
                    proc.writeData(probeVa, content);
                    m.kernel.runKsmScan(api.now());
                    const Tick lat = co_await api.store(probeVa);
                    out.samples[0].add(static_cast<double>(lat));
                }
                // Plain probes: the page is writable (just split)
                // and its line store-warm after the first touch —
                // the attack's idle slot.
                co_await api.store(probeVa);
                for (int i = 0; i < samples; ++i) {
                    co_await api.spin(params.ts);
                    const Tick lat = co_await api.store(probeVa);
                    out.samples[1].add(static_cast<double>(lat));
                }
            });
        m.sched.runUntilFinished(observer);
        panic_if(!observer->finished,
                 "pagefault-vector calibration did not complete");

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
        const TimingParams &t = run.cfg.system.timing;
        seed_ = run.cfg.system.seed ^
                (0x70AEFULL * (run.rig.pairId + 1));

        trojanVa_ = run.rig.trojanProc->mmap(pageBytes);
        spyVa_ = run.rig.spyProc->mmap(pageBytes);
        run.rig.trojanProc->madviseMergeable(trojanVa_, pageBytes);
        run.rig.spyProc->madviseMergeable(spyVa_, pageBytes);
        // Seed both sides out of phase: the spy holds slot 0's
        // pattern, the trojan holds junk until it transmits.
        run.rig.spyProc->writeData(spyVa_, slotPattern(seed_, 0));
        run.rig.trojanProc->writeData(
            trojanVa_, slotPattern(seed_ ^ junkSalt, 0));

        // One COW fault plus a fresh-frame fill per side, padded:
        // trojan splits and rewrites at the slot start, the spy
        // probes at 3/4 slot and rewrites before the slot closes.
        slot_ = 4 * (t.cowFaultLat + t.dramLat()) + 2000;
        probeAt_ = 3 * slot_ / 4;
        epoch_ = run.startAt + 20'000;

        // One ksmd serves the whole machine: fleet pairs beyond the
        // first reuse pair 1's daemon. Three scans per slot keep a
        // scan inside every pair's write-to-probe window at any
        // stagger phase. The daemon thread never exits; the run ends
        // when the spy does, like the noise agents.
        if (run.rig.pairId <= 1) {
            Process &ksmd =
                m.kernel.createProcess("ksmd");
            Machine *machine = &m;
            const Tick period = slot_ / 3;
            const Tick first = epoch_ + slot_ / 6;
            m.kernel.spawnThread(
                m.sched, "ksmd", run.rig.plan.localLoaders[0], ksmd,
                [machine, period, first](ThreadApi api) -> Task {
                    for (std::uint64_t i = 0;; ++i) {
                        co_await api.spinUntil(first + i * period);
                        machine->kernel.runKsmScan(api.now());
                    }
                });
        }
    }

    Task
    trojanTask(ThreadApi api, VectorRun &run) override
    {
        TrojanResult &out = run.trojan;
        Process &proc = *run.rig.trojanProc;
        out.syncStart = out.syncEnd = api.now();
        co_await api.spinUntil(epoch_);
        out.txStart = api.now();
        chEvent(api, TraceEventType::chTxStart, run.payload.size());
        for (std::size_t f = 0; f < run.payload.size() * 2; ++f) {
            co_await api.spinUntil(epoch_ +
                                   static_cast<Tick>(f) * slot_);
            const std::uint8_t bit = run.payload[f / 2];
            const bool act = bit ? (f % 2 == 0) : (f % 2 == 1);
            if (f % 2 == 0)
                chEvent(api, TraceEventType::chTxBit, bit, f / 2);
            // Absorb the split left by the previous slot's merge,
            // then publish this slot's content: the spy's schedule
            // pattern to signal, junk to stay silent. writeData is a
            // functional write-through, so it must never land on a
            // still-merged frame — a scan may re-merge the fresh COW
            // copy (identical to the canonical) during the store's
            // own latency window; keep splitting until the mapping
            // is private.
            co_await api.store(trojanVa_);
            while (!proc.lookup(trojanVa_)->writable)
                co_await api.store(trojanVa_);
            proc.writeData(trojanVa_,
                           act ? slotPattern(seed_, f)
                               : slotPattern(seed_ ^ junkSalt,
                                             f + 1));
        }
        out.txEnd = api.now();
        chEvent(api, TraceEventType::chTxEnd, run.payload.size());
    }

    Task
    spyTask(ThreadApi api, VectorRun &run) override
    {
        SpyResult &out = run.spy;
        Process &proc = *run.rig.spyProc;
        LatencyBand faulted = actionBand(run.cal);
        LatencyBand plain = idleBand(run.cal);
        {
            std::vector<LatencyBand *> used = {&faulted, &plain};
            claimGaps(used, run.cfg.params.gapClaim);
        }
        const std::size_t maxBits = run.payload.size() + 16;

        out.rxStart = epoch_;
        chEvent(api, TraceEventType::chRxStart);
        int idle_frames = 0;
        bool slot_a = false;
        for (std::size_t f = 0;; ++f) {
            co_await api.spinUntil(
                epoch_ + static_cast<Tick>(f) * slot_ + probeAt_);
            const Tick lat = co_await api.store(spyVa_);
            // The probe's store split any merge — but a scan inside
            // its latency window can re-merge the fresh copy (still
            // content-identical to the canonical). Re-split until the
            // mapping is private, or the rewrite below would write
            // through into the canonical under the trojan's feet.
            while (!proc.lookup(spyVa_)->writable)
                co_await api.store(spyVa_);
            proc.writeData(spyVa_, slotPattern(seed_, f + 1));
            if (run.collectTrace)
                out.trace.push_back(
                    SpySample{api.now(), lat, api.lastServed()});
            const auto cls = classifySample(
                static_cast<double>(lat), faulted, plain);
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
    /** Salt separating the trojan's silent content stream. */
    static constexpr std::uint64_t junkSalt = 0x6a756e6bULL;

    VAddr trojanVa_ = 0;
    VAddr spyVa_ = 0;
    std::uint64_t seed_ = 0;
    Tick slot_ = 0;
    Tick probeAt_ = 0;
    Tick epoch_ = 0;
};

} // namespace

std::unique_ptr<LeakageVector>
makePagefaultVector()
{
    return std::make_unique<PagefaultVector>();
}

} // namespace csim
