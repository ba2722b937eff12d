/**
 * @file
 * Configuration of the PHY-style channel stack (`phy.*` fields).
 *
 * Dependency-free on purpose: `ChannelConfig` embeds a PhyConfig, so
 * this header must not pull any channel machinery in. The stack
 * itself lives in the sibling headers (whiten, interleave, hamming,
 * preamble, soft, frame, adaptive, phy_channel).
 */

#ifndef COHERSIM_PHY_PHY_CONFIG_HH
#define COHERSIM_PHY_PHY_CONFIG_HH

#include <cstdint>

namespace csim
{

/**
 * Which transmit/receive chain the channel runs. Each value runs one
 * chain, whatever the entry point.
 *
 * raw, the default, is plain modulation on any leakage vector: every
 * classic experiment (Figs. 8-9, 11). legacyParity is the paper's
 * §VIII-C chain (Fig. 10): even-parity packets with NACK-triggered
 * retransmission. The hamming profiles replace ARQ with forward
 * error correction over a framed, whitened, interleaved wire format;
 * `hard` decodes each codeword from hard bit decisions, `soft` runs
 * maximum-likelihood decoding over the spy's per-bit confidence.
 * adaptive picks a hamming profile and the bit period from the
 * calibrated band separation at session start. Every value but raw
 * runs on the coherence vector of a single pair only.
 *
 * The numbers are published (the `ch.phy.profile` counter), so new
 * values are appended.
 */
enum class PhyProfile : std::uint8_t
{
    legacyParity = 0,
    hammingHard = 1,
    hammingSoft = 2,
    raw = 3,
    adaptive = 4,
};

const char *phyProfileName(PhyProfile p);

/** PHY channel-stack knobs (the `phy.*` config axis). */
struct PhyConfig
{
    PhyProfile profile = PhyProfile::raw;
    /**
     * Block-interleaver rows. Burst errors of up to this many
     * consecutive wire bits land in distinct FEC codewords. 1
     * disables interleaving.
     */
    int interleaverDepth = 8;
    /**
     * Preamble length in wire bits (a cyclic extension of the
     * Barker-13 sequence). Longer preambles lower the false-lock
     * rate at the cost of per-frame overhead.
     */
    int preambleLen = 16;
    /** Whiten frame bodies with the PN9 sequence before FEC. */
    bool whiten = true;
    /**
     * Payload nibbles per frame. Short frames bound how far a lost
     * bit boundary can shear the positional FEC alignment; each
     * frame re-locks at its own preamble.
     */
    int frameNibbles = 32;
};

} // namespace csim

#endif // COHERSIM_PHY_PHY_CONFIG_HH
