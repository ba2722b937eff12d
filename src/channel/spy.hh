/**
 * @file
 * The spy (receiver) side of the covert channel — Algorithm 2.
 *
 * The spy is a single-threaded observer performing repeated
 * flush + wait + timed-reload rounds on the shared block B. Samples
 * are classified against the calibrated Tc/Tb bands, and runs of
 * consecutive Tc observations between Tb boundaries are translated
 * into bits.
 */

#ifndef COHERSIM_CHANNEL_SPY_HH
#define COHERSIM_CHANNEL_SPY_HH

#include <optional>
#include <vector>

#include "channel/calibration.hh"
#include "channel/combo.hh"
#include "channel/protocol.hh"
#include "common/bit_string.hh"
#include "common/types.hh"
#include "sim/task.hh"
#include "sim/thread_api.hh"

namespace csim
{

/** How a single timed sample classifies against the agreed bands. */
enum class SampleClass : std::uint8_t
{
    communication,  //!< inside Tc: the bit-communication band
    boundary,       //!< inside Tb: the bit-boundary band
    outOfBand,      //!< neither (uncached reload, noise tail, ...)
};

/**
 * Online translation of classified samples into bits (the
 * "translation period" of Algorithm 2, made incremental so the
 * error-correction session can decode packet by packet).
 *
 * Out-of-band samples are skipped: they neither extend nor terminate
 * a run, mirroring Algorithm 2's band-scanning loops.
 */
class IncrementalTranslator
{
  public:
    explicit IncrementalTranslator(int thold) : thold_(thold) {}

    /** Feed one sample; returns a bit when one is completed. */
    std::optional<int> feed(SampleClass cls);

    /** Flush a pending communication run at end of stream. */
    std::optional<int> finish();

  private:
    enum class Phase : std::uint8_t
    {
        seekBoundary,  //!< waiting for the first Tb observation
        inBoundary,    //!< consuming a Tb run
        inBit,         //!< counting a Tc run
    };

    int thold_;
    Phase phase_ = Phase::seekBoundary;
    int cRun_ = 0;
};

/** One timed observation made by the spy. */
struct SpySample
{
    Tick when = 0;     //!< spy clock at the reload
    Tick latency = 0;  //!< observed reload latency
    /** Ground truth of where the reload was served from (the spy
     *  cannot see this; recorded for tests and analysis). */
    ServedBy served = ServedBy::none;
};

/** Everything the spy recorded during one reception. */
struct SpyResult
{
    BitString bits;                 //!< translated bit stream
    std::vector<SpySample> trace;   //!< raw Tvalues (Fig. 7 data)
    Tick rxStart = 0;               //!< first in-band observation
    Tick rxEnd = 0;                 //!< end of the reception period
    bool sawTransmission = false;
};

/** Classify a latency against the scenario's Tc/Tb bands. */
SampleClass classifySample(double latency, const LatencyBand &tc,
                           const LatencyBand &tb);

/**
 * Batch translation of a latency trace (used by tests and by the
 * offline spy). Equivalent to feeding every sample through an
 * IncrementalTranslator.
 */
BitString translateTrace(const std::vector<SpySample> &trace,
                         const LatencyBand &tc, const LatencyBand &tb,
                         int thold);

/**
 * The spy coroutine: waits for the start of a transmission, then
 * records timed reloads until the trojan goes quiet (N consecutive
 * out-of-band samples), then translates.
 *
 * @param api the spy thread.
 * @param block shared block B in the spy's address space.
 * @param scenario which (CSc, CSb) pair is in use.
 * @param cal calibrated latency bands.
 * @param params protocol parameters.
 * @param out receives the result (owned by the caller).
 * @param collect_trace record raw samples (Fig. 7 benches).
 */
Task spyBody(ThreadApi api, VAddr block, const ScenarioInfo &scenario,
             const CalibrationResult &cal, const ChannelParams &params,
             SpyResult &out, bool collect_trace);

} // namespace csim

#endif // COHERSIM_CHANNEL_SPY_HH
