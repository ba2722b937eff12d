#include "channel/calibration.hh"

#include <algorithm>
#include <vector>

#include "channel/placer.hh"
#include "common/logging.hh"
#include "os/kernel.hh"

namespace csim
{

LatencyBand
bandOf(const SampleSet &s, double widen)
{
    return LatencyBand{s.percentile(1.0) - widen,
                       s.percentile(99.0) + widen};
}

namespace
{

Task
calibrationBody(ThreadApi api, PlacerCrew &crew, VAddr block,
                int samples_per_combo, const ChannelParams &params,
                Tick warmup, bool has_remote, CalibrationResult &out)
{
    for (Combo c : allCombos()) {
        const bool remote = comboRemoteLoaders(c) > 0;
        if (remote && !has_remote)
            continue;
        crew.activate(c, block);
        co_await api.spin(warmup);
        SampleSet &set = out.samples[comboIndex(c)];
        for (int i = 0; i < samples_per_combo; ++i) {
            co_await api.flush(block);
            co_await api.spin(params.ts);
            const Tick lat = co_await api.load(block);
            set.add(static_cast<double>(lat));
        }
    }
    // Uncached reloads: the out-of-band (DRAM) reference.
    crew.idle();
    co_await api.spin(warmup);
    for (int i = 0; i < samples_per_combo; ++i) {
        co_await api.flush(block);
        co_await api.spin(params.ts);
        const Tick lat = co_await api.load(block);
        out.dramSamples.add(static_cast<double>(lat));
    }
    crew.stopAll();
}

} // namespace

void
claimGaps(std::vector<LatencyBand *> &bands, double fraction)
{
    if (fraction <= 0.0 || bands.size() < 2)
        return;
    std::sort(bands.begin(), bands.end(),
              [](const LatencyBand *a, const LatencyBand *b) {
                  return a->lo < b->lo;
              });
    for (std::size_t i = 0; i + 1 < bands.size(); ++i) {
        const double gap = bands[i + 1]->lo - bands[i]->hi;
        if (gap <= 8.0)
            continue;
        bands[i]->hi += fraction * (gap - 8.0);
    }
}

CalibrationResult
calibrate(const SystemConfig &cfg, int samples_per_combo,
          const ChannelParams &params)
{
    fatal_if(samples_per_combo <= 0,
             "calibration needs at least one sample per combo");
    fatal_if(cfg.coresPerSocket < 4,
             "calibration needs >= 4 cores on the observer's socket");

    Machine m(cfg);
    Process &proc = m.kernel.createProcess("calibrator");
    const VAddr page = proc.mmap(pageBytes);
    const VAddr block = page;  // first line of the page

    CalibrationResult out;
    out.hasRemote = cfg.sockets >= 2;

    const std::vector<CoreId> local_cores = {cfg.coreOf(0, 1),
                                             cfg.coreOf(0, 2)};
    std::vector<CoreId> remote_cores;
    if (out.hasRemote) {
        remote_cores = {cfg.coreOf(1, 0), cfg.coreOf(1, 1)};
    }
    PlacerCrew crew(m.kernel, m.sched, proc, local_cores,
                    remote_cores, params);

    SimThread *observer = m.kernel.spawnThread(
        m.sched, "cal.observer", cfg.coreOf(0, 0), proc,
        [&](ThreadApi api) {
            const Tick warmup =
                12 * params.nominalSamplePeriod(cfg.timing);
            return calibrationBody(api, crew, block,
                                   samples_per_combo, params,
                                   warmup, out.hasRemote, out);
        });
    m.sched.runUntilFinished(observer);
    panic_if(!observer->finished, "calibration did not complete");

    for (Combo c : allCombos()) {
        const SampleSet &s = out.samples[comboIndex(c)];
        if (s.count() > 0)
            out.bands[comboIndex(c)] = bandOf(s, params.bandWiden);
    }
    out.dramBand = bandOf(out.dramSamples, params.bandWiden);

    // The attack needs distinguishable bands. A small overlap of the
    // widened edges is fine (classification resolves it by nearest
    // band centre); warn only when one band's centre falls inside
    // another band, which happens when the machine's timing blurs
    // the states (e.g. the E->M-notification mitigation).
    for (std::size_t i = 0; i < numCombos; ++i) {
        for (std::size_t j = i + 1; j < numCombos; ++j) {
            const auto &a = out.bands[i];
            const auto &b = out.bands[j];
            if (out.samples[i].count() && out.samples[j].count() &&
                (a.contains(b.mid()) || b.contains(a.mid()))) {
                warn("calibration: bands ",
                     comboName(allCombos()[i]), " and ",
                     comboName(allCombos()[j]),
                     " are indistinguishable ([", a.lo, ",", a.hi,
                     "] vs [", b.lo, ",", b.hi, "])");
            }
        }
    }
    return out;
}

} // namespace csim
