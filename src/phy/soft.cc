#include "phy/soft.hh"

#include <algorithm>
#include <cmath>

namespace csim
{

double
classifyConfidence(double latency, const LatencyBand &tc,
                   const LatencyBand &tb, SampleClass cls)
{
    if (cls == SampleClass::outOfBand)
        return 0.0;
    const double d_own = std::abs(
        latency -
        (cls == SampleClass::communication ? tc.mid() : tb.mid()));
    const double d_other = std::abs(
        latency -
        (cls == SampleClass::communication ? tb.mid() : tc.mid()));
    if (d_own + d_other <= 0.0)
        return 0.0;
    return std::clamp((d_other - d_own) / (d_other + d_own), 0.0,
                      1.0);
}

SoftBit
SoftTranslator::emit()
{
    SoftBit out;
    out.bit = cRun_ > thold_ ? 1 : 0;
    const double run_margin = std::min(
        1.0, std::abs(static_cast<double>(cRun_ - thold_)) / spread_);
    const double mean_conf =
        cRun_ > 0 ? confSum_ / static_cast<double>(cRun_) : 0.0;
    // Equal parts run-length margin and sample quality; skipped
    // samples inside the run mean the count itself is suspect.
    double conf = 0.5 * run_margin + 0.5 * mean_conf;
    conf /= 1.0 + static_cast<double>(skips_);
    // Confidence floor: the hard decision always carries *some*
    // weight, or an all-zero codeword would decode arbitrarily.
    out.confidence = std::clamp(conf, 0.05, 1.0);
    cRun_ = 0;
    skips_ = 0;
    confSum_ = 0.0;
    return out;
}

std::optional<SoftBit>
SoftTranslator::feed(SampleClass cls, double band_conf)
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
            confSum_ = band_conf;
            skips_ = 0;
        }
        return std::nullopt;
      case Phase::inBit:
        if (cls == SampleClass::communication) {
            ++cRun_;
            confSum_ += band_conf;
            return std::nullopt;
        }
        if (cls == SampleClass::boundary) {
            phase_ = Phase::inBoundary;
            return emit();
        }
        // Out-of-band: the run continues (Algorithm 2 scans past
        // samples in neither band) but the bit loses confidence.
        ++skips_;
        return std::nullopt;
    }
    return std::nullopt;
}

} // namespace csim
