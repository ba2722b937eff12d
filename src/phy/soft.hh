/**
 * @file
 * Soft demapping: the spy observes raw load latencies, not hard
 * bits, so every decoded wire bit can carry a confidence — how far
 * its samples sat from the Tc/Tb decision boundary (paper Fig. 2)
 * and how far its run length sat from Thold. The soft-decision FEC
 * decoder weighs bits by these confidences, which is what lets the
 * hamming-soft profile survive operating points where hard decisions
 * already start flipping.
 */

#ifndef COHERSIM_PHY_SOFT_HH
#define COHERSIM_PHY_SOFT_HH

#include <optional>

#include "channel/calibration.hh"
#include "channel/protocol.hh"
#include "channel/spy.hh"
#include "phy/hamming.hh"

namespace csim
{

/**
 * Confidence of one sample's band classification, in [0, 1]: the
 * normalized distance advantage of the chosen band's centre over the
 * competing band's. 1 at the band centre, 0 at the midpoint between
 * the bands (and for out-of-band samples, which carry no evidence).
 */
double classifyConfidence(double latency, const LatencyBand &tc,
                          const LatencyBand &tb, SampleClass cls);

/**
 * Incremental run-length translation with per-bit soft output: the
 * state machine of IncrementalTranslator, additionally folding the
 * run's sample confidences, its distance from Thold and any skipped
 * out-of-band samples into a SoftBit confidence.
 */
class SoftTranslator
{
  public:
    explicit SoftTranslator(const ChannelParams &params)
        : thold_(params.thold()),
          spread_(std::max(1.0, (params.c1 - params.c0) / 2.0))
    {
    }

    /** Feed one classified sample; a SoftBit when one completes. */
    std::optional<SoftBit> feed(SampleClass cls, double band_conf);

  private:
    SoftBit emit();

    enum class Phase : std::uint8_t
    {
        seekBoundary,
        inBoundary,
        inBit,
    };

    int thold_;
    double spread_;
    Phase phase_ = Phase::seekBoundary;
    int cRun_ = 0;
    int skips_ = 0;        //!< out-of-band samples inside the run
    double confSum_ = 0.0; //!< band confidences of the run's samples
};

} // namespace csim

#endif // COHERSIM_PHY_SOFT_HH
