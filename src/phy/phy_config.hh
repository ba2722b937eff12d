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
 * Which transmit/receive chain the channel runs.
 *
 * legacyParity is the default, and what it runs depends on the
 * entry point. runExperiment (and so every CLI transmit, sweep and
 * fleet) runs plain raw modulation under it, so every pre-PHY
 * experiment is bit-identical. runPhyTransmission runs the paper's
 * §VIII-C chain under it: even-parity packets with NACK-triggered
 * retransmission (Fig. 10). The hamming profiles replace ARQ with
 * forward error correction over a framed, whitened, interleaved wire
 * format on both entry points; `hard` decodes each codeword from
 * hard bit decisions, `soft` runs maximum-likelihood decoding over
 * the spy's per-bit confidence.
 */
enum class PhyProfile : std::uint8_t
{
    legacyParity,
    hammingHard,
    hammingSoft,
};

const char *phyProfileName(PhyProfile p);

/** PHY channel-stack knobs (the `phy.*` config axis). */
struct PhyConfig
{
    PhyProfile profile = PhyProfile::legacyParity;
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
     * Pick the FEC profile and bit period from the calibrated band
     * separation at session start instead of the configured ones.
     */
    bool adaptive = false;
    /**
     * Payload nibbles per frame. Short frames bound how far a lost
     * bit boundary can shear the positional FEC alignment; each
     * frame re-locks at its own preamble.
     */
    int frameNibbles = 32;

    /**
     * Does this config run the framed FEC stack? A hamming profile
     * does, and so does the adaptive controller, which never picks
     * legacy-parity.
     */
    bool
    framed() const
    {
        return profile != PhyProfile::legacyParity || adaptive;
    }
};

} // namespace csim

#endif // COHERSIM_PHY_PHY_CONFIG_HH
