/**
 * @file
 * The `phy` member of ChannelReport. Dependency-free on purpose,
 * like phy_config.hh: the channel layer embeds it.
 */

#ifndef COHERSIM_PHY_PHY_RESULT_HH
#define COHERSIM_PHY_PHY_RESULT_HH

#include <cstdint>

#include "common/types.hh"
#include "phy/phy_config.hh"

namespace csim
{

/** Per-stage receive/transmit counters of one PHY session. */
struct PhyStageStats
{
    std::uint64_t framesSent = 0;
    std::uint64_t wireBitsReceived = 0;  //!< demapped wire bits
    std::uint64_t preambleLocks = 0;
    std::uint64_t headerBad = 0;      //!< headers that failed SECDED
    std::uint64_t framesAccepted = 0;
    std::uint64_t framesDuplicate = 0;  //!< dropped by the seq guard
    std::uint64_t fecBlocks = 0;        //!< codewords decoded
    std::uint64_t fecCorrected = 0;     //!< codewords with a repair
    std::uint64_t fecUncorrectable = 0;  //!< detected-unrepairable

    bool operator==(const PhyStageStats &) const = default;
};

/**
 * The PHY-only outcome of one PHY session (any phy.profile but
 * raw). Raw modulation (every vector, fleet pairs) leaves it zero.
 * The delivered bits, completion flag, clock and rates, and the
 * parity chain's NACK/retransmission counts live in the common
 * ChannelReport.
 */
struct PhyResult
{
    /** Frames (parity packets) the payload was split into. */
    int frames = 0;
    /** Wire bits transmitted (preamble + header + coded body, or
     *  every parity packet including retransmissions). */
    std::uint64_t rawBitsSent = 0;
    /** Positional bit errors remaining after FEC (or parity). */
    std::uint64_t residualErrors = 0;
    PhyStageStats stages;
    /** Profile the session ran (adaptive: the one it picked). */
    PhyProfile profileUsed = PhyProfile::raw;
    /** Raw rate the adaptive controller picked; 0 = configured. */
    double rateKbps = 0.0;
    /** Calibrated band separation the controller acted on. */
    double bandSeparation = 0.0;
    bool operator==(const PhyResult &) const = default;
};

} // namespace csim

#endif // COHERSIM_PHY_PHY_RESULT_HH
