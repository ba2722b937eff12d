/**
 * @file
 * The dirty-state leakage vector (Cui et al., "Cache Side-Channel
 * Attacks Based on Dirty States").
 *
 * Writebacks take time: flushing a line that is Modified anywhere in
 * the hierarchy costs flushDirtyExtra cycles on top of the clean
 * flush. Trojan and spy share a *writable* page; the trojan encodes
 * a '1'-period by storing to the line (keeping it dirty under the
 * spy's flushes) and a boundary/idle period by leaving it clean. The
 * spy's probe is a *timed flush* — no reload needed — classified
 * against calibrated flush-dirty (action) and flush-clean (idle)
 * bands. Symbols reuse the paper's run-length scheme (c1/c0
 * communication runs between cb boundaries), so the classic
 * IncrementalTranslator decodes the stream unchanged.
 *
 * The spy's flush train over one line with the trojan's stores
 * interleaved is exactly the recurrent pattern CC-Hunter's flush
 * detector scores — the coherence detector generalizes to this
 * vector without a new event alphabet.
 */

#include "channel/trace_hooks.hh"
#include "channel/vector.hh"
#include "common/logging.hh"
#include "os/kernel.hh"

namespace csim
{

namespace
{

/**
 * Mean spy probe period: one timed flush (dirty half the time, in
 * expectation between communication and boundary phases) plus the
 * inter-probe wait. The trojan holds its phase grid in these units.
 */
Tick
dirtySamplePeriod(const ChannelParams &p, const TimingParams &t)
{
    return t.flushBase + t.flushDirtyExtra / 2 + p.ts;
}

class DirtyVector final : public LeakageVector
{
  public:
    VectorKind kind() const override { return VectorKind::dirty; }

    CalibrationResult
    calibrate(const ChannelConfig &cfg) const override
    {
        Machine m(cfg.system);
        Process &proc = m.kernel.createProcess("calibrator");
        const VAddr block = proc.mmap(pageBytes);

        CalibrationResult out;
        out.hasRemote = cfg.system.sockets >= 2;
        constexpr int samples = 400;
        const ChannelParams &params = cfg.params;

        SimThread *observer = m.kernel.spawnThread(
            m.sched, "cal.observer", cfg.system.coreOf(0, 0), proc,
            [&](ThreadApi api) -> Task {
                // Clean flushes: load (E state), flush timed.
                for (int i = 0; i < samples; ++i) {
                    co_await api.load(block);
                    co_await api.spin(params.ts);
                    const Tick lat = co_await api.flush(block);
                    out.samples[1].add(static_cast<double>(lat));
                }
                // Dirty flushes: store (M state), flush timed. The
                // flush path detects dirty copies anywhere in the
                // hierarchy, the issuing core's own cache included.
                for (int i = 0; i < samples; ++i) {
                    co_await api.store(block);
                    co_await api.spin(params.ts);
                    const Tick lat = co_await api.flush(block);
                    out.samples[0].add(static_cast<double>(lat));
                }
                // Uncached reloads: the trojan's sync phase detects
                // the spy's flushes by its own reload slowing to
                // memory latency.
                for (int i = 0; i < samples; ++i) {
                    co_await api.flush(block);
                    co_await api.spin(params.ts);
                    const Tick lat = co_await api.load(block);
                    out.dramSamples.add(static_cast<double>(lat));
                }
            });
        m.sched.runUntilFinished(observer);
        panic_if(!observer->finished,
                 "dirty-vector calibration did not complete");

        for (int i = 0; i < 2; ++i)
            out.bands[i] = bandOf(out.samples[i], params.bandWiden);
        out.dramBand = bandOf(out.dramSamples, params.bandWiden);
        return out;
    }

    Task
    trojanTask(ThreadApi api, VectorRun &run) override
    {
        TrojanResult &out = run.trojan;
        const ChannelParams &params = run.cfg.params;
        const VAddr block = run.rig.shared.trojanVa;

        // Sync: store (M in our cache), wait, reload. A reload at
        // memory latency means someone flushed our dirty copy — the
        // spy is probing. The chirped wait breaks phase lock, like
        // the coherence sync.
        out.syncStart = api.now();
        const double flushed_threshold = run.cal.dramBand.lo - 2.0;
        for (;;) {
            ++out.syncProbes;
            co_await api.store(block);
            const Tick chirp =
                (static_cast<Tick>(out.syncProbes) * 131) %
                (params.ts + 1);
            co_await api.spin(params.ts / 2 + chirp);
            const Tick lat = co_await api.load(block);
            if (static_cast<double>(lat) >= flushed_threshold)
                break;
        }
        out.syncEnd = api.now();
        chEvent(api, TraceEventType::chSyncDone, out.syncProbes);

        // Transmit on a phase grid like the coherence trojan. A
        // communication phase keeps the line dirty by re-storing
        // every helperGap (several stores per spy flush); a boundary
        // phase leaves it clean. The spy's observations lag the grid
        // by at most one sample — a uniform shift that preserves
        // every run length.
        const Tick period =
            dirtySamplePeriod(params, run.cfg.system.timing);
        out.txStart = api.now();
        chEvent(api, TraceEventType::chTxStart, run.payload.size());
        Tick phase_start = api.now();
        auto holdDirty = [&](int periods) -> Task {
            phase_start += static_cast<Tick>(periods) * period;
            while (api.now() + params.helperGap <
                   phase_start) {
                co_await api.store(block);
                co_await api.spin(params.helperGap);
            }
            co_await api.spinUntil(phase_start);
        };
        auto holdClean = [&](int periods) -> Task {
            phase_start += static_cast<Tick>(periods) * period;
            co_await api.spinUntil(phase_start);
        };
        // Dirty lead-in announces the start (the spy locks on two
        // consecutive dirty flushes), then the classic
        // boundary/communication run-length stream.
        co_await holdDirty(params.cb + 2);
        co_await holdClean(params.cb);
        for (std::uint8_t bit : run.payload) {
            chEvent(api, TraceEventType::chTxBit, bit);
            co_await holdDirty(bit ? params.c1 : params.c0);
            chEvent(api, TraceEventType::chTxBoundary);
            co_await holdClean(params.cb);
        }
        out.txEnd = api.now();
        chEvent(api, TraceEventType::chTxEnd, run.payload.size());
    }

    Task
    spyTask(ThreadApi api, VectorRun &run) override
    {
        SpyResult &out = run.spy;
        const ChannelParams &params = run.cfg.params;
        const VAddr block = run.rig.shared.spyVa;

        LatencyBand tc = actionBand(run.cal);  // flush-dirty
        LatencyBand tb = idleBand(run.cal);    // flush-clean
        {
            std::vector<LatencyBand *> used = {&tc, &tb};
            claimGaps(used, params.gapClaim);
        }
        IncrementalTranslator translator(params.thold());

        // Phase 1: wait for the trojan's dirty lead-in (two
        // consecutive dirty flushes; the pre-transmission line is
        // clean, so idle cannot trigger us).
        int consecutive_tc = 0;
        for (;;) {
            const Tick lat = co_await api.flush(block);
            co_await api.spin(params.ts);
            const auto cls =
                classifySample(static_cast<double>(lat), tc, tb);
            if (cls == SampleClass::communication) {
                if (++consecutive_tc >= 2)
                    break;
            } else {
                consecutive_tc = 0;
            }
        }
        out.sawTransmission = true;
        out.rxStart = api.now();
        chEvent(api, TraceEventType::chRxStart);

        // Phase 2: reception. Flush latencies are two-valued here
        // (no out-of-band reference like a DRAM reload), so end of
        // transmission is a clean run longer than any boundary:
        // cb + endN consecutive idle samples.
        int idle_run = 0;
        for (;;) {
            const Tick lat = co_await api.flush(block);
            co_await api.spin(params.ts);
            if (run.collectTrace)
                out.trace.push_back(
                    SpySample{api.now(), lat, api.lastServed()});
            const auto cls =
                classifySample(static_cast<double>(lat), tc, tb);
            if (auto bit = translator.feed(cls)) {
                chEvent(api, TraceEventType::chRxBit,
                        static_cast<std::uint64_t>(*bit),
                        out.bits.size());
                out.bits.push_back(static_cast<std::uint8_t>(*bit));
            }
            if (cls == SampleClass::boundary) {
                if (++idle_run >= params.cb + params.endN)
                    break;
            } else {
                idle_run = 0;
            }
        }
        if (auto bit = translator.finish()) {
            chEvent(api, TraceEventType::chRxBit,
                    static_cast<std::uint64_t>(*bit),
                    out.bits.size());
            out.bits.push_back(static_cast<std::uint8_t>(*bit));
        }
        out.rxEnd = api.now();
        chEvent(api, TraceEventType::chRxEnd, out.bits.size());
    }
};

} // namespace

std::unique_ptr<LeakageVector>
makeDirtyVector()
{
    return std::make_unique<DirtyVector>();
}

} // namespace csim
