#include "channel/metrics.hh"

#include "common/edit_distance.hh"

namespace csim
{

ChannelMetrics
computeMetrics(const BitString &sent, const BitString &received,
               Tick tx_start, Tick tx_end, const TimingParams &timing)
{
    ChannelMetrics m;
    m.bitsSent = sent.size();
    m.bitsReceived = received.size();
    m.accuracy = rawBitAccuracy(sent, received);
    m.durationCycles = tx_end > tx_start ? tx_end - tx_start : 0;
    m.rawKbps = timing.kbps(m.bitsSent, m.durationCycles);
    // accuracy * bitsSent is the edit-distance count of correctly
    // received bits, so this rate reflects what the spy actually got.
    m.effectiveKbps = m.rawKbps * m.accuracy;
    // bitsSent counts payload bits, so the rate above is goodput.
    m.payloadKbps = m.effectiveKbps;
    return m;
}

} // namespace csim
