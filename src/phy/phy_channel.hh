/**
 * @file
 * The single-pair PHY session: runPhyTransmission runs the link
 * layer cfg.phy selects on one trojan/spy pair.
 *
 * The hamming profiles run the framed, whitened, interleaved,
 * FEC-protected wire format of src/phy. The transmit chain runs
 * whiten -> Hamming(8,4) -> interleave -> frame (preamble + header +
 * body); the receive chain runs the soft demapper -> preamble hunt
 * -> deinterleave -> FEC decode -> dewhiten. There is no reverse
 * channel: residual errors are the codewords FEC could not repair,
 * and the rate is whatever the operating point sustains — the trade
 * the adaptive controller navigates (src/phy/adaptive.hh).
 *
 * The legacy-parity profile runs the paper's §VIII-C chain instead
 * (Fig. 10): 64-byte even-parity packets (channel/ecc.hh), each
 * retransmitted until the spy stops NACKing it over a brief role
 * reversal.
 *
 * The session state and the coroutine bodies of both chains are
 * private to phy_channel.cc. A caller that wants to watch a session
 * attaches taps or a detector through the ChannelConfig, like every
 * other single-pair run.
 */

#ifndef COHERSIM_PHY_PHY_CHANNEL_HH
#define COHERSIM_PHY_PHY_CHANNEL_HH

#include "channel/channel.hh"
#include "common/bit_string.hh"

namespace csim
{

/**
 * Run one complete PHY-profile covert transmission on one
 * trojan/spy pair (runExperiment routes framed specs here).
 *
 * @param cfg experiment configuration; cfg.phy selects the chain:
 *        framed FEC, or parity+NACK under legacy-parity.
 * @param payload bits the trojan exfiltrates.
 * @param cal pre-computed calibration to reuse across a sweep.
 * @return the common report: received is the reassembled payload,
 *         metrics are payload-level with rawKbps at the wire rate
 *         (so the FEC expansion stays visible) and the parity
 *         chain's NACK/retransmission counts as the retry cost,
 *         counters carry `ch.*` then `ch.phy.*`, and phy holds the
 *         per-stage and session-clock results.
 */
ChannelReport runPhyTransmission(const ChannelConfig &cfg,
                                 const BitString &payload,
                                 const CalibrationResult *cal =
                                     nullptr);

} // namespace csim

#endif // COHERSIM_PHY_PHY_CHANNEL_HH
