/**
 * @file
 * Latency-band calibration (paper §V, Figure 2).
 *
 * Before communicating, the adversaries self-measure the load latency
 * of block accesses in each (location, coherence state) combination
 * and agree on the latency bands Tc and Tb. The calibrator runs the
 * same micro-benchmark the paper describes: timed loads against a
 * block held in each combination by loader threads.
 */

#ifndef COHERSIM_CHANNEL_CALIBRATION_HH
#define COHERSIM_CHANNEL_CALIBRATION_HH

#include <array>
#include <vector>

#include "channel/combo.hh"
#include "channel/protocol.hh"
#include "common/stats.hh"
#include "mem/params.hh"

namespace csim
{

/** A closed latency interval classifying one combination pair. */
struct LatencyBand
{
    double lo = 0.0;
    double hi = 0.0;

    bool
    contains(double v) const
    {
        return v >= lo && v <= hi;
    }

    double mid() const { return (lo + hi) / 2.0; }

    bool
    overlaps(const LatencyBand &other) const
    {
        return lo <= other.hi && other.lo <= hi;
    }
};

/** Calibrated bands plus the raw samples they came from. */
struct CalibrationResult
{
    std::array<LatencyBand, numCombos> bands;
    std::array<SampleSet, numCombos> samples;
    /** Band of uncached (DRAM) reloads, used as out-of-band marker. */
    LatencyBand dramBand;
    SampleSet dramSamples;
    /** False when the config has one socket (no remote combos). */
    bool hasRemote = true;

    const LatencyBand &
    band(Combo c) const
    {
        return bands[comboIndex(c)];
    }
    const SampleSet &
    comboSamples(Combo c) const
    {
        return samples[comboIndex(c)];
    }
};

/**
 * The band a calibrated latency class claims: [p1, p99] of its
 * samples, widened by @p widen on both sides.
 */
LatencyBand bandOf(const SampleSet &s, double widen);

/**
 * Extend each band's upper edge into the gap up to the next band by
 * @p fraction of the gap (leaving a small guard). Contention only
 * ever *delays* loads, so a sample in the gap above a band most
 * likely belongs to that band; the receivers use this to absorb
 * queueing delays under noise.
 */
void claimGaps(std::vector<LatencyBand *> &bands, double fraction);

/**
 * Run the calibration micro-benchmark on a scratch machine.
 *
 * @param cfg machine configuration to calibrate for.
 * @param samples_per_combo timed loads per combination (paper: 1000).
 * @param params protocol timing used while measuring.
 * @return bands widened by params.bandWiden cycles on each side.
 */
CalibrationResult calibrate(const SystemConfig &cfg,
                            int samples_per_combo = 1000,
                            const ChannelParams &params = {});

} // namespace csim

#endif // COHERSIM_CHANNEL_CALIBRATION_HH
