/**
 * @file
 * Protocol parameters shared by the trojan and spy (the counters and
 * intervals of Algorithms 1 and 2).
 */

#ifndef COHERSIM_CHANNEL_PROTOCOL_HH
#define COHERSIM_CHANNEL_PROTOCOL_HH

#include <algorithm>

#include "common/types.hh"
#include "mem/params.hh"

namespace csim
{

/**
 * Counters and intervals the adversaries agree on ahead of time
 * (paper §VII-B). All times in cycles of the reference clock.
 */
struct ChannelParams
{
    /** Consecutive CSc sample periods encoding a '1' bit. */
    int c1 = 5;
    /** Consecutive CSc sample periods encoding a '0' bit. */
    int c0 = 2;
    /** Consecutive CSb sample periods delimiting bits. */
    int cb = 3;
    /** Spy's wait between its flush and its timed reload (Ts). */
    Tick ts = 2500;
    /**
     * Consecutive out-of-band samples ending the reception period
     * (N in Algorithm 2).
     */
    int endN = 10;
    /** Threshold separating C1 from C0 runs (Thold, Algorithm 2). */
    int
    thold() const
    {
        return (c1 + c0) / 2;
    }

    /** Trojan loader threads re-load B this often while maintaining. */
    Tick helperGap = 110;
    /** Polling granularity of trojan helper threads. */
    Tick pollInterval = 80;

    /** Cycles beyond the calibrated band edges still accepted. */
    double bandWiden = 10.0;
    /**
     * Fraction of the gap up to the next *used* band that each
     * decision band claims (contention only ever delays loads, so a
     * delayed sample belongs to the band below it).
     */
    double gapClaim = 0.6;

    /**
     * Nominal spy sample period: flush + Ts + a mid-band reload.
     * The trojan holds each phase for a multiple of this.
     */
    Tick
    nominalSamplePeriod(const TimingParams &t) const
    {
        const Tick mid_load =
            (t.localSharedLat() + t.remoteExclLat()) / 2;
        return t.flushBase + ts + mid_load;
    }

    /** Average sample periods consumed per transmitted bit. */
    double
    samplesPerBit() const
    {
        return cb + (c1 + c0) / 2.0;
    }

    /** Nominal bit rate these parameters target, in Kbits/s. */
    double
    nominalKbps(const TimingParams &t) const
    {
        const double cycles_per_bit =
            samplesPerBit() *
            static_cast<double>(nominalSamplePeriod(t));
        return t.clockGhz * 1e9 / cycles_per_bit / 1e3;
    }

    /**
     * Retarget @p p (default parameters when omitted) to a given raw
     * bit rate by shrinking the spy's sampling interval (the paper's
     * knob 2); the helper re-load gap and poll interval shrink along
     * with it (knob 1 analogue). Only ts, helperGap and pollInterval
     * change: the counts, band widening and gap claim stay @p p's.
     */
    static ChannelParams forTargetKbps(double kbps,
                                       const TimingParams &t,
                                       ChannelParams p);
};

inline ChannelParams
ChannelParams::forTargetKbps(double kbps, const TimingParams &t,
                             ChannelParams p = {})
{
    const double cycles_per_bit = t.clockGhz * 1e9 / (kbps * 1e3);
    const double period = cycles_per_bit / p.samplesPerBit();
    const Tick mid_load = (t.localSharedLat() + t.remoteExclLat()) / 2;
    const double ts = period - static_cast<double>(t.flushBase + mid_load);
    p.ts = static_cast<Tick>(std::max(ts, 40.0));
    p.helperGap = std::clamp<Tick>(p.ts / 4, 24, 150);
    p.pollInterval = std::clamp<Tick>(p.ts / 5, 18, 100);
    return p;
}

} // namespace csim

#endif // COHERSIM_CHANNEL_PROTOCOL_HH
