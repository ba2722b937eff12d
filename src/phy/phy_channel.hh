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
 * The FEC coroutine bodies and the session state are public so a
 * caller can run a PHY session on a rig of its own (the detection
 * tests attach CC-Hunter this way), exactly like the single-pair
 * driver below does through ExperimentRig::run.
 */

#ifndef COHERSIM_PHY_PHY_CHANNEL_HH
#define COHERSIM_PHY_PHY_CHANNEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "channel/channel.hh"
#include "common/bit_string.hh"
#include "phy/frame.hh"
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
};

/** Outcome of one PHY-profile session. */
struct PhyReport
{
    std::uint64_t payloadBits = 0;
    /** Frames (parity packets) the payload was split into. */
    int frames = 0;
    /** Wire bits transmitted (preamble + header + coded body, or
     *  every parity packet including retransmissions). */
    std::uint64_t rawBitsSent = 0;
    /** What the spy reassembled (truncated to payloadBits). */
    BitString delivered;
    /** Positional bit errors remaining after FEC (or parity). */
    std::uint64_t residualErrors = 0;
    /** Session duration (sync end to trojan completion), cycles. */
    Tick durationCycles = 0;
    /** Payload bits over the session duration, Kbits/s. */
    double effectiveKbps = 0.0;
    /** Goodput: correctly delivered payload bits over the session
     *  duration, Kbits/s — net of framing/FEC overhead and of the
     *  residual errors effectiveKbps still credits. */
    double payloadKbps = 0.0;
    /** Profile the session actually ran (adaptive may override). */
    PhyProfile profileUsed = PhyProfile::hammingSoft;
    /** Raw rate the adaptive controller picked; 0 = configured. */
    double rateKbps = 0.0;
    /** Calibrated band separation the controller acted on. */
    double bandSeparation = 0.0;
    PhyStageStats stages;
    /** @name Retry cost of the legacy-parity chain (else zero) */
    /** @{ */
    std::uint64_t nacks = 0;  //!< NACK windows the trojan observed
    std::uint64_t retransmissions = 0;  //!< packets sent again
    /** @} */
    bool completed = false;
};

/**
 * State one PHY session's two coroutines share, plus everything they
 * record. Fill with phyPrepareSession(), hand to the bodies, then
 * harvest with phyFinalizeSession(). The scenario/calibration
 * pointers are non-owning and must outlive the run.
 */
struct PhySession
{
    const ScenarioInfo *scenario = nullptr;
    const CalibrationResult *cal = nullptr;
    ChannelParams params;   //!< post-adaptive operating parameters
    PhyConfig phy;          //!< post-adaptive profile and knobs
    Tick period = 0;        //!< nominal sample period under params
    /** Wire frames (or parity packets) to transmit. */
    std::vector<BitString> frames;

    /** @name Adaptive-controller evidence (zero when disabled) */
    /** @{ */
    double rateKbps = 0.0;
    double bandSeparation = 0.0;
    /** @} */

    /** @name Live coroutine state */
    /** @{ */
    bool trojanDone = false;
    Tick sessionStart = 0;  //!< sync end (payload clock starts)
    Tick trojanEnd = 0;
    /** @} */

    /** @name Outputs */
    /** @{ */
    TrojanResult trojan;
    SpyResult spy;  //!< bits = demapped wire bits, for diagnostics
    /**
     * Accepted frame chunks keyed by *absolute* frame index,
     * unwrapped from the 4-bit sequence numbers: a lost frame
     * leaves a gap (an erasure) instead of shifting every later
     * chunk's position.
     */
    std::vector<std::pair<std::size_t, BitString>> accepted;
    PhyStageStats stages;
    std::uint64_t rawBitsSent = 0;
    std::uint64_t nacks = 0;  //!< legacy-parity chain only
    std::uint64_t retransmissions = 0;  //!< legacy-parity chain only
    /** @} */
};

/**
 * Resolve the operating point (running the adaptive controller when
 * cfg.phy.adaptive) and pre-encode the payload into wire frames, or
 * into parity packets under legacy-parity.
 */
void phyPrepareSession(PhySession &s, const ChannelConfig &cfg,
                       const BitString &payload,
                       const CalibrationResult &cal);

/** Trojan controller: sync handshake, then one burst per frame. */
Task phyTrojanBody(ThreadApi api, PlacerCrew &crew, VAddr block,
                   PhySession &s);

/**
 * Spy: sample, soft-demap, hunt for preambles, decode headers and
 * FEC-protected bodies until the trojan falls silent.
 */
Task phySpyBody(ThreadApi api, VAddr block, PhySession &s);

/**
 * Harvest the session into a report. @p fallback_end bounds the
 * duration when the trojan never finished (timeout).
 */
PhyReport phyFinalizeSession(const PhySession &s,
                             const BitString &payload,
                             const TimingParams &timing,
                             Tick fallback_end);

/**
 * Map a finished session onto the common ChannelMetrics: accuracy
 * and effective/payload rates are payload-level, rawKbps is the wire
 * rate (so the FEC expansion factor stays visible), and the
 * parity chain's NACK/retransmission counts fill the retry cost.
 */
ChannelMetrics phyChannelMetrics(const PhyReport &report,
                                 const PhySession &s,
                                 const BitString &payload,
                                 const TimingParams &timing);

/**
 * Publish the per-stage counters into @p reg under
 * `<prefix>ch.phy.*`, next to the common `<prefix>ch.*` set.
 */
void addPhyCounters(CounterRegistry &reg, const std::string &prefix,
                    const PhyReport &report);

/**
 * Run one complete PHY-profile covert transmission on one
 * trojan/spy pair (runExperiment routes framed specs here).
 *
 * @param cfg experiment configuration; cfg.phy selects the chain:
 *        framed FEC, or parity+NACK under legacy-parity.
 * @param payload bits the trojan exfiltrates.
 * @param cal pre-computed calibration to reuse across a sweep.
 * @param channel_report when non-null, also filled with the common
 *        ChannelReport view (metrics, counters, trojan/spy results)
 *        that runExperiment returns for a PHY run.
 */
PhyReport runPhyTransmission(const ChannelConfig &cfg,
                             const BitString &payload,
                             const CalibrationResult *cal = nullptr,
                             ChannelReport *channel_report = nullptr);

} // namespace csim

#endif // COHERSIM_PHY_PHY_CHANNEL_HH
