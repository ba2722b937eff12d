#include "channel/spy.hh"

#include <cmath>

#include "channel/trace_hooks.hh"

namespace csim
{

SampleClass
classifySample(double latency, const LatencyBand &tc,
               const LatencyBand &tb)
{
    const bool in_tc = tc.contains(latency);
    const bool in_tb = tb.contains(latency);
    if (in_tc && in_tb) {
        // Widened bands may overlap slightly; attribute the sample
        // to the nearer band centre.
        return std::abs(latency - tc.mid()) <=
                       std::abs(latency - tb.mid())
                   ? SampleClass::communication
                   : SampleClass::boundary;
    }
    if (in_tc)
        return SampleClass::communication;
    if (in_tb)
        return SampleClass::boundary;
    return SampleClass::outOfBand;
}

std::optional<int>
IncrementalTranslator::feed(SampleClass cls)
{
    switch (phase_) {
      case Phase::seekBoundary:
        if (cls == SampleClass::boundary)
            phase_ = Phase::inBoundary;
        return std::nullopt;
      case Phase::inBoundary:
        if (cls == SampleClass::communication) {
            phase_ = Phase::inBit;
            cRun_ = 1;
        }
        return std::nullopt;
      case Phase::inBit:
        if (cls == SampleClass::communication) {
            ++cRun_;
            return std::nullopt;
        }
        if (cls == SampleClass::boundary) {
            const int bit = cRun_ > thold_ ? 1 : 0;
            cRun_ = 0;
            phase_ = Phase::inBoundary;
            return bit;
        }
        // Out-of-band: ignored, the run continues (Algorithm 2
        // scans forward past samples in neither band).
        return std::nullopt;
    }
    return std::nullopt;
}

std::optional<int>
IncrementalTranslator::finish()
{
    if (phase_ == Phase::inBit && cRun_ > 0) {
        const int bit = cRun_ > thold_ ? 1 : 0;
        cRun_ = 0;
        phase_ = Phase::seekBoundary;
        return bit;
    }
    phase_ = Phase::seekBoundary;
    cRun_ = 0;
    return std::nullopt;
}

BitString
translateTrace(const std::vector<SpySample> &trace,
               const LatencyBand &tc, const LatencyBand &tb,
               int thold)
{
    IncrementalTranslator tr(thold);
    BitString bits;
    for (const SpySample &s : trace) {
        const SampleClass cls =
            classifySample(static_cast<double>(s.latency), tc, tb);
        if (auto bit = tr.feed(cls))
            bits.push_back(static_cast<std::uint8_t>(*bit));
    }
    if (auto bit = tr.finish())
        bits.push_back(static_cast<std::uint8_t>(*bit));
    return bits;
}

Task
spyBody(ThreadApi api, VAddr block, const ScenarioInfo &scenario,
        const CalibrationResult &cal, const ChannelParams &params,
        SpyResult &out, bool collect_trace)
{
    // Decision bands: claim part of the gaps between the bands this
    // scenario actually uses, absorbing contention delays.
    LatencyBand tc = cal.band(scenario.csc);
    LatencyBand tb = cal.band(scenario.csb);
    LatencyBand dram = cal.dramBand;
    {
        std::vector<LatencyBand *> used = {&tc, &tb, &dram};
        claimGaps(used, params.gapClaim);
    }
    IncrementalTranslator translator(params.thold());

    // Phase 1: poll for the start of transmission. The trojan
    // announces it by holding CSb; we require two consecutive Tb
    // observations so stray sync-phase hits do not trigger us.
    int consecutive_tb = 0;
    for (;;) {
        co_await api.flush(block);
        co_await api.spin(params.ts);
        const Tick lat = co_await api.load(block);
        const auto cls =
            classifySample(static_cast<double>(lat), tc, tb);
        if (cls == SampleClass::boundary) {
            if (++consecutive_tb >= 2)
                break;
        } else {
            consecutive_tb = 0;
        }
    }
    out.sawTransmission = true;
    out.rxStart = api.now();
    chEvent(api, TraceEventType::chRxStart);
    // The observations that triggered the start are boundary
    // samples; prime the translator accordingly.
    translator.feed(SampleClass::boundary);

    // Phase 2: reception. Record timed reloads until the trojan goes
    // quiet for endN consecutive samples.
    int out_of_band = 0;
    for (;;) {
        co_await api.flush(block);
        co_await api.spin(params.ts);
        const Tick lat = co_await api.load(block);
        if (collect_trace)
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
        if (cls == SampleClass::outOfBand) {
            if (++out_of_band >= params.endN)
                break;
        } else {
            // Recovered into a band after a run of unclassifiable
            // samples: report the slip length. Published at recovery
            // (not per sample) so the end-of-reception marker run,
            // which never recovers, is not miscounted as a slip.
            if (out_of_band > 0) {
                chEvent(api, TraceEventType::chSyncSlip,
                        static_cast<std::uint64_t>(out_of_band));
            }
            out_of_band = 0;
        }
    }
    if (auto bit = translator.finish()) {
        chEvent(api, TraceEventType::chRxBit,
                static_cast<std::uint64_t>(*bit), out.bits.size());
        out.bits.push_back(static_cast<std::uint8_t>(*bit));
    }
    out.rxEnd = api.now();
    chEvent(api, TraceEventType::chRxEnd, out.bits.size());
}

} // namespace csim
