/**
 * @file
 * Per-vector symbol-band definitions for the health monitor.
 *
 * The coherence vector's health story is the Fig. 2 premise: four
 * (location, state) latency bands plus DRAM, checked for drift
 * against the calibrated references (RunHealthMonitor::setBands).
 * The other leakage vectors calibrate a two-band alphabet instead —
 * an action symbol and an idle symbol — and each rides a different
 * machine observable, not all of which surface as load latencies on
 * the trace bus. This module names those alphabets per vector and
 * seeds whatever reference bands *are* machine-visible, so
 * `cohersim report` stays meaningful when channel.vector changes.
 */

#ifndef COHERSIM_OBS_VECTOR_BANDS_HH
#define COHERSIM_OBS_VECTOR_BANDS_HH

#include "channel/calibration.hh"
#include "channel/vector_kind.hh"
#include "obs/health.hh"

namespace csim
{

/** The two-symbol alphabet of one leakage vector, for reports. */
struct VectorBandInfo
{
    /** Name of the action symbol's latency band. */
    const char *action;
    /** Name of the idle symbol's latency band. */
    const char *idle;
    /** One line: which machine observable carries the symbol. */
    const char *carrier;
};

/** The alphabet of vector @p k (coherence reports the combo set). */
VectorBandInfo vectorBandInfo(VectorKind k);

/**
 * Seed @p monitor's reference bands for vector @p k from @p cal:
 * the full combo set for both coherence vectors, the DRAM slot
 * (the evicted probe's refill) for the LRU vector. The dirty and
 * page-fault vectors time flushes and stores, which the mem trace
 * events do not carry a latency for — their drift tracking stays
 * off and the report leans on the timeseries/error-budget views
 * instead.
 */
void seedVectorBands(RunHealthMonitor &monitor, VectorKind k,
                     const CalibrationResult &cal);

} // namespace csim

#endif // COHERSIM_OBS_VECTOR_BANDS_HH
