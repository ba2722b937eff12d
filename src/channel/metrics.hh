/**
 * @file
 * Channel quality metrics: raw bit accuracy (edit-distance based, so
 * lost/duplicated/flipped bits all count, §VIII-B) and transmission
 * rates in the units the paper reports.
 */

#ifndef COHERSIM_CHANNEL_METRICS_HH
#define COHERSIM_CHANNEL_METRICS_HH

#include <cstdint>

#include "common/bit_string.hh"
#include "common/types.hh"
#include "mem/params.hh"

namespace csim
{

/** Summary of one transmission. */
struct ChannelMetrics
{
    /**
     * Trojan/spy pair the transmission belongs to: 0 on the
     * single-pair path, the 1-based pair number in a fleet run —
     * matching the `pair` field of the channel trace events.
     */
    std::uint32_t pairId = 0;
    std::uint64_t bitsSent = 0;
    std::uint64_t bitsReceived = 0;
    /** Raw bit accuracy in [0, 1] (1 = perfect reception). */
    double accuracy = 0.0;
    /** Transmission duration in cycles (trojan tx start to spy end). */
    Tick durationCycles = 0;
    /** Raw transmitted bits per second, in Kbits/s. */
    double rawKbps = 0.0;
    /**
     * Correctly received bits per second, in Kbits/s: rawKbps scaled
     * by the edit-distance accuracy, so a spy that decodes fewer (or
     * garbled) bits is not credited with the transmit-side rate.
     */
    double effectiveKbps = 0.0;
    /**
     * Goodput: correctly delivered *payload* bits per second, net of
     * any framing/FEC/parity overhead the scheme spends on the wire.
     * bitsSent counts payload bits on every path (a PHY session
     * scores the payload, not its wire frames), so this always
     * equals effectiveKbps; a PHY session's wire rate is rawKbps.
     * Nothing prints it; it stays because the repository benchmark's
     * cell digest (`benchmark/src/workloads.cc`) hashes it.
     */
    double payloadKbps = 0.0;
    /**
     * @name Retry cost (paper Fig. 10)
     * NACKs the transmitter observed and packet retransmissions it
     * issued, so effectiveKbps can be read against the retry
     * overhead. Filled by the legacy-parity (parity+NACK) chain; zero
     * for raw modulation and the FEC chains, which never
     * retransmit.
     */
    /** @{ */
    std::uint64_t nacks = 0;
    std::uint64_t retransmits = 0;
    /** @} */

    bool operator==(const ChannelMetrics &) const = default;
};

/** Compute metrics for a completed transmission. */
ChannelMetrics computeMetrics(const BitString &sent,
                              const BitString &received, Tick tx_start,
                              Tick tx_end, const TimingParams &timing);

} // namespace csim

#endif // COHERSIM_CHANNEL_METRICS_HH
