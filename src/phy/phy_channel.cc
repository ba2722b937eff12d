/**
 * @file
 * The single-pair PHY session: the chain every phy.profile but raw
 * selects, on one trojan/spy pair. runTransmission
 * (channel/experiment.hh) is its one entry point.
 *
 * The hamming profiles run the framed, whitened, interleaved,
 * FEC-protected wire format of src/phy. The transmit chain runs
 * whiten -> Hamming(8,4) -> interleave -> frame (preamble + header +
 * body); the receive chain
 * runs the soft demapper -> preamble hunt -> deinterleave -> FEC
 * decode -> dewhiten. There is no reverse channel: residual errors
 * are the codewords FEC could not repair, and the rate is whatever
 * the configured operating point sustains.
 *
 * The legacy-parity profile runs the paper's §VIII-C chain instead
 * (Fig. 10): 64-byte even-parity packets (channel/ecc.hh), each
 * retransmitted until the spy stops NACKing it over a brief role
 * reversal.
 */

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "channel/channel.hh"
#include "channel/ecc.hh"
#include "channel/trace_hooks.hh"
#include "common/logging.hh"
#include "phy/frame.hh"
#include "phy/preamble.hh"
#include "phy/soft.hh"
#include "prof/profiler.hh"

namespace csim
{

namespace
{

/**
 * State one PHY session's two coroutines share, plus everything they
 * record. Fill with phyPrepareSession(), hand to the bodies, then
 * harvest with phyFinalizeSession(). The config, scenario and
 * calibration pointers are non-owning and must outlive the run.
 */
struct PhySession
{
    const ChannelConfig *cfg = nullptr;
    const ScenarioInfo *scenario = nullptr;
    const CalibrationResult *cal = nullptr;
    Tick period = 0;        //!< nominal sample period of cfg->params
    /** Wire frames (or parity packets) to transmit. */
    std::vector<BitString> frames;

    /** @name Live coroutine state */
    /** @{ */
    bool trojanDone = false;
    Tick trojanEnd = 0;
    /** @} */

    /** @name Outputs */
    /** @{ */
    /**
     * The report the run returns, filled as it goes: sent, the
     * trojan/spy results (spy.bits = demapped wire bits, for
     * diagnostics) and phy's stage counters and wire bits.
     */
    ChannelReport rep;
    /**
     * Accepted frame chunks keyed by *absolute* frame index,
     * unwrapped from the 4-bit sequence numbers: a lost frame
     * leaves a gap (an erasure) instead of shifting every later
     * chunk's position.
     */
    std::vector<std::pair<std::size_t, BitString>> accepted;
    std::uint64_t nacks = 0;  //!< legacy-parity chain only
    std::uint64_t retransmissions = 0;  //!< legacy-parity chain only
    /** @} */
};

/**
 * Pre-encode the payload into wire frames, or into parity packets
 * under legacy-parity.
 */
void
phyPrepareSession(PhySession &s, const ChannelConfig &cfg,
                  const BitString &payload,
                  const CalibrationResult &cal)
{
    s.cfg = &cfg;
    s.scenario = &scenarioInfo(cfg.scenario);
    s.cal = &cal;
    s.period = cfg.params.nominalSamplePeriod(cfg.system.timing);
    s.rep.sent = payload;

    // Pre-encode the payload. FEC frames carry fixed-size chunks
    // with 4-bit sequence numbers; FEC mode never retransmits, so
    // consecutive frames always carry distinct sequence numbers and
    // the spy's duplicate guard only ever drops false decodes.
    // Parity packets carry 64 bytes (the last one zero-padded) with
    // 8-bit sequence numbers.
    ScopedSpan span("phy.encode");
    const bool framed = cfg.phy.profile != PhyProfile::legacyParity;
    const std::size_t chunk_bits =
        framed ? static_cast<std::size_t>(cfg.phy.frameNibbles) *
                     hammingDataBits
               : packetDataBits;
    for (std::size_t off = 0; off < payload.size();
         off += chunk_bits) {
        BitString chunk(
            payload.begin() + static_cast<std::ptrdiff_t>(off),
            payload.begin() +
                static_cast<std::ptrdiff_t>(
                    std::min(off + chunk_bits, payload.size())));
        if (framed) {
            s.frames.push_back(phyEncodeFrame(
                static_cast<std::uint8_t>(s.frames.size() & 0xf),
                chunk, cfg.phy));
        } else {
            chunk.resize(packetDataBits, 0);
            s.frames.push_back(encodePacket(
                static_cast<std::uint8_t>(s.frames.size() & 0xff),
                chunk));
        }
    }
}

/** Trojan controller: sync handshake, then one burst per frame. */
Task
phyTrojanBody(ThreadApi api, PlacerCrew &crew, VAddr block,
              PhySession &s)
{
    const ChannelParams &params = s.cfg->params;
    co_await trojanSyncPhase(api, block, *s.cal, params, s.rep.trojan);
    PhyResult &out = s.rep.phy;

    bool first = true;
    for (const BitString &frame : s.frames) {
        TrojanResult tr;
        co_await trojanTransmit(api, crew, block, *s.scenario,
                                params, s.period, frame, tr);
        if (first) {
            s.rep.trojan.txStart = tr.txStart;
            first = false;
        }
        s.rep.trojan.txEnd = tr.txEnd;
        out.rawBitsSent += frame.size();
        ++out.stages.framesSent;
        // Brief inter-frame silence: the spy's translator parks in
        // its boundary state and the next preamble re-locks it.
        co_await api.spin(2 * s.period);
    }
    crew.idle();
    s.trojanEnd = api.now();
    s.trojanDone = true;
}

/**
 * Spy: sample, soft-demap, hunt for preambles, decode headers and
 * FEC-protected bodies until the trojan falls silent.
 */
Task
phySpyBody(ThreadApi api, VAddr block, PhySession &s)
{
    const ChannelParams &params = s.cfg->params;
    const PhyConfig &phy = s.cfg->phy;
    PhyStageStats &stages = s.rep.phy.stages;
    SpyResult &spy = s.rep.spy;
    LatencyBand tc = s.cal->band(s.scenario->csc);
    LatencyBand tb = s.cal->band(s.scenario->csb);
    LatencyBand dram = s.cal->dramBand;
    {
        std::vector<LatencyBand *> used = {&tc, &tb, &dram};
        claimGaps(used, params.gapClaim);
    }

    SoftTranslator translator(params);
    PreambleDetector detector(preamblePattern(phy.preambleLen),
                              preambleMismatchBudget(phy.preambleLen));
    enum class Rx : std::uint8_t { hunt, header, body };
    Rx rx = Rx::hunt;
    BitString header_bits;
    std::vector<SoftBit> body_bits;
    PhyFrameHeader hdr;
    // Absolute frame index recovered from the 4-bit wire sequence:
    // the delta to the previously accepted frame's sequence number
    // unwraps it (frames arrive in transmit order; up to 15
    // consecutive losses stay unambiguous).
    int last_seq = -1;
    std::size_t frame_index = 0;
    int out_of_band = 0;
    std::uint64_t wire_index = 0;

    // The FEC stack has no reverse channel, so the spy simply
    // listens until the trojan has fallen silent for good.
    const auto session_over = [&] {
        return s.trojanDone && api.now() > s.trojanEnd + 4 * s.period;
    };

    while (!session_over()) {
        co_await api.flush(block);
        co_await api.spin(params.ts);
        const Tick lat = co_await api.load(block);
        const double latency = static_cast<double>(lat);
        const auto cls = classifySample(latency, tc, tb);
        if (cls == SampleClass::outOfBand) {
            ++out_of_band;
        } else {
            // Slips reported at recovery, as in spyBody, so the
            // inter-frame quiet gaps never count as one each sample.
            if (out_of_band > 0) {
                chEvent(api, TraceEventType::chSyncSlip,
                        static_cast<std::uint64_t>(out_of_band));
            }
            out_of_band = 0;
        }

        const auto soft = translator.feed(
            cls, classifyConfidence(latency, tc, tb, cls));
        if (!soft)
            continue;
        ++stages.wireBitsReceived;
        spy.bits.push_back(soft->bit);
        chEvent(api, TraceEventType::chRxBit, soft->bit,
                wire_index++);

        switch (rx) {
          case Rx::hunt:
            if (detector.push(soft->bit)) {
                ++stages.preambleLocks;
                chEvent(api, TraceEventType::chPhyPreambleLock,
                        static_cast<std::uint64_t>(
                            detector.lastMismatches()));
                if (!spy.sawTransmission) {
                    spy.sawTransmission = true;
                    spy.rxStart = api.now();
                    chEvent(api, TraceEventType::chRxStart);
                }
                header_bits.clear();
                rx = Rx::header;
            }
            break;
          case Rx::header:
            header_bits.push_back(soft->bit);
            if (header_bits.size() == phyHeaderWireBits) {
                // Synchronous between two co_awaits: safe to
                // wall-scope (never held across a suspension).
                ScopedSpan hdr_span("phy.decode.header");
                if (const auto h =
                        phyDecodeHeader(header_bits, phy)) {
                    hdr = *h;
                    body_bits.clear();
                    rx = Rx::body;
                } else {
                    ++stages.headerBad;
                    chEvent(api, TraceEventType::chPhyHeaderBad,
                            stages.headerBad);
                    rx = Rx::hunt;
                }
            }
            break;
          case Rx::body:
            body_bits.push_back(*soft);
            if (body_bits.size() == phyBodyWireBits(hdr.nibbles)) {
                ScopedSpan body_span("phy.decode.body");
                const PhyBodyResult res =
                    phyDecodeBody(body_bits, hdr, phy);
                stages.fecBlocks +=
                    static_cast<std::uint64_t>(res.blocks);
                stages.fecCorrected +=
                    static_cast<std::uint64_t>(res.corrected);
                stages.fecUncorrectable +=
                    static_cast<std::uint64_t>(res.uncorrectable);
                if (res.corrected > 0) {
                    chEvent(api, TraceEventType::chPhyFecCorrected,
                            static_cast<std::uint64_t>(res.corrected),
                            hdr.seq);
                }
                if (res.uncorrectable > 0) {
                    chEvent(api, TraceEventType::chPhyFecBad,
                            static_cast<std::uint64_t>(
                                res.uncorrectable),
                            hdr.seq);
                }
                const bool dup = static_cast<int>(hdr.seq) == last_seq;
                if (dup) {
                    ++stages.framesDuplicate;
                } else {
                    if (last_seq < 0) {
                        // Losses before the first lock: the raw
                        // sequence is the absolute index (mod 16).
                        frame_index = hdr.seq;
                    } else {
                        frame_index += static_cast<std::size_t>(
                            (static_cast<int>(hdr.seq) - last_seq +
                             16) %
                            16);
                    }
                    s.accepted.emplace_back(frame_index, res.bits);
                    last_seq = hdr.seq;
                    ++stages.framesAccepted;
                }
                chEvent(api, TraceEventType::chPhyFrame, hdr.seq,
                        dup ? 0 : 1);
                spy.rxEnd = api.now();
                detector.reset();
                rx = Rx::hunt;
            }
            break;
        }
    }
    chEvent(api, TraceEventType::chRxEnd, stages.wireBitsReceived);
}

/** @name Parity+NACK protocol tunables (paper §VIII-C) */
/** @{ */
/** Trojan probes per acknowledgement window. */
constexpr int ackSamples = 5;
/** Cached probes (out of ackSamples) that signal a NACK. */
constexpr int nackThreshold = 2;
/** Give up on a packet after this many retransmissions. */
constexpr int maxRetries = 25;
/** @} */

/**
 * Parity+NACK trojan: sync handshake, then each packet until the
 * spy stops NACKing it. After each packet the roles briefly
 * reverse: the trojan probes block B for the spy's NACK signal.
 */
Task
parityTrojanBody(ThreadApi api, PlacerCrew &crew, VAddr block,
                 PhySession &s)
{
    const ChannelParams &params = s.cfg->params;
    co_await trojanSyncPhase(api, block, *s.cal, params, s.rep.trojan);
    s.rep.trojan.txStart = api.now();
    const double cached_threshold = s.cal->dramBand.lo - 2.0;

    for (const BitString &packet : s.frames) {
        int attempts = 0;
        for (;;) {
            TrojanResult tr;
            co_await trojanTransmit(api, crew, block, *s.scenario,
                                    params, s.period, packet, tr);
            s.rep.phy.rawBitsSent += packet.size();
            // Let the spy run into its end-of-packet detection.
            co_await api.spinUntil(
                tr.txEnd +
                static_cast<Tick>(params.endN + 2) * s.period);
            // Acknowledgement window: probe whether the spy is
            // holding B cached (its NACK signal).
            int cached = 0;
            for (int i = 0; i < ackSamples; ++i) {
                co_await api.flush(block);
                co_await api.spin(params.ts);
                const Tick lat = co_await api.load(block);
                if (static_cast<double>(lat) < cached_threshold)
                    ++cached;
            }
            const bool nack = cached >= nackThreshold;
            if (nack) {
                ++s.nacks;
                chEvent(api, TraceEventType::chNack,
                        static_cast<std::uint64_t>(attempts + 1));
            }
            // Settle before the next lead-in so the spy is back in
            // its wait-for-start phase.
            co_await api.spin(3 * s.period);
            if (!nack)
                break;
            ++s.retransmissions;
            chEvent(api, TraceEventType::chRetransmit,
                    s.rep.phy.rawBitsSent / packetTotalBits);
            if (++attempts > maxRetries) {
                chEvent(api, TraceEventType::chRetransmitExhausted,
                        static_cast<std::uint64_t>(attempts - 1));
                warn("ecc: giving up on a packet after ",
                     maxRetries, " retries");
                break;
            }
        }
    }
    crew.idle();
    s.trojanDone = true;
    s.trojanEnd = s.rep.trojan.txEnd = api.now();
}

/**
 * Parity+NACK spy: receive each packet, accept it when its parity
 * checks out, else hold B cached through the trojan's
 * acknowledgement window (the NACK).
 */
Task
paritySpyBody(ThreadApi api, VAddr block, PhySession &s)
{
    const ChannelParams &params = s.cfg->params;
    LatencyBand tc = s.cal->band(s.scenario->csc);
    LatencyBand tb = s.cal->band(s.scenario->csb);
    LatencyBand dram = s.cal->dramBand;
    {
        std::vector<LatencyBand *> used = {&tc, &tb, &dram};
        claimGaps(used, params.gapClaim);
    }
    int last_seq = -1;

    while (s.accepted.size() < s.frames.size() && !s.trojanDone) {
        // Wait for the packet lead-in boundary.
        int consecutive_tb = 0;
        bool started = false;
        while (!started && !s.trojanDone) {
            co_await api.flush(block);
            co_await api.spin(params.ts);
            const Tick lat = co_await api.load(block);
            const auto cls =
                classifySample(static_cast<double>(lat), tc, tb);
            if (cls == SampleClass::boundary) {
                if (++consecutive_tb >= 2)
                    started = true;
            } else {
                consecutive_tb = 0;
            }
        }
        if (!started)
            break;

        // Receive the packet's bits.
        IncrementalTranslator translator(params.thold());
        translator.feed(SampleClass::boundary);
        BitString bits;
        int out_of_band = 0;
        while (out_of_band < params.endN) {
            co_await api.flush(block);
            co_await api.spin(params.ts);
            const Tick lat = co_await api.load(block);
            const auto cls =
                classifySample(static_cast<double>(lat), tc, tb);
            if (auto bit = translator.feed(cls))
                bits.push_back(static_cast<std::uint8_t>(*bit));
            if (cls == SampleClass::outOfBand) {
                ++out_of_band;
            } else {
                // Slip reported at recovery, as in spyBody, so the
                // end-of-packet marker run never counts as one.
                if (out_of_band > 0) {
                    chEvent(api, TraceEventType::chSyncSlip,
                            static_cast<std::uint64_t>(out_of_band));
                }
                out_of_band = 0;
            }
        }
        if (auto bit = translator.finish())
            bits.push_back(static_cast<std::uint8_t>(*bit));

        const auto decoded = decodePacket(bits);
        if (decoded) {
            if (static_cast<int>(decoded->first) != last_seq) {
                s.accepted.emplace_back(s.accepted.size(),
                                        decoded->second);
                last_seq = decoded->first;
                chEvent(api, TraceEventType::chPacketAccepted,
                        decoded->first);
            }
            // ACK (no NACK): stay quiet through the trojan's window.
            co_await api.spin(
                static_cast<Tick>(ackSamples + 2) * s.period);
        } else {
            // NACK: keep B cached while the trojan probes.
            const Tick until =
                api.now() +
                static_cast<Tick>(ackSamples + 4) * s.period;
            while (api.now() < until) {
                co_await api.load(block);
                co_await api.spin(params.helperGap);
            }
        }
    }
}

/**
 * Harvest the session into its report: the reassembled payload as
 * received and the residual errors in phy.
 */
void
phyFinalizeSession(PhySession &s)
{
    ScopedSpan span("phy.finalize");
    const BitString &payload = s.rep.sent;
    BitString &delivered = s.rep.received;
    PhyResult &r = s.rep.phy;
    r.frames = static_cast<int>(s.frames.size());

    if (s.cfg->phy.profile == PhyProfile::legacyParity) {
        // Parity+NACK accepts packets in order: concatenate them and
        // cut the last packet's zero padding.
        for (const auto &[index, data] : s.accepted)
            delivered.insert(delivered.end(), data.begin(), data.end());
        if (delivered.size() > payload.size())
            delivered.resize(payload.size());
    } else if (!s.accepted.empty()) {
        // Place each accepted chunk at its sequence-derived offset;
        // lost frames stay zero-filled erasures instead of shifting
        // every later chunk out of position.
        const std::size_t chunk_bits =
            static_cast<std::size_t>(s.cfg->phy.frameNibbles) *
            hammingDataBits;
        delivered.assign(payload.size(), 0);
        for (const auto &[index, chunk] : s.accepted) {
            const std::size_t off = index * chunk_bits;
            for (std::size_t i = 0;
                 i < chunk.size() && off + i < delivered.size(); ++i)
                delivered[off + i] = chunk[i];
        }
    }
    for (std::size_t i = 0; i < payload.size(); ++i) {
        if (i >= delivered.size() || delivered[i] != payload[i])
            ++r.residualErrors;
    }
}

/**
 * Publish the per-stage counters and the profile that ran into
 * @p reg under `<prefix>ch.phy.*`, next to the common `<prefix>ch.*`
 * set.
 */
void
addPhyCounters(CounterRegistry &reg, const std::string &prefix,
               PhyProfile profile, const PhyResult &phy)
{
    const std::string base = prefix + "ch.phy.";
    reg.counter(base + "frames_sent") = phy.stages.framesSent;
    reg.counter(base + "frames_accepted") = phy.stages.framesAccepted;
    reg.counter(base + "preamble_locks") = phy.stages.preambleLocks;
    reg.counter(base + "header_bad") = phy.stages.headerBad;
    reg.counter(base + "fec_corrected") = phy.stages.fecCorrected;
    reg.counter(base + "fec_uncorrectable") =
        phy.stages.fecUncorrectable;
    reg.counter(base + "wire_bits") = phy.rawBitsSent;
    reg.counter(base + "profile") = static_cast<std::uint64_t>(profile);
}

} // namespace

/**
 * runTransmission's branch for every phy.profile but raw. Counters
 * carry `ch.*` then `ch.phy.*`; phy holds the stage results, metrics
 * the clock and the rates.
 */
ChannelReport
runPhyTransmission(const ChannelConfig &cfg_in,
                   const BitString &payload,
                   const CalibrationResult *cal)
{
    const ScenarioInfo &scenario = scenarioInfo(cfg_in.scenario);
    SinglePairRig rig(cfg_in, cal, scenario.localLoaders,
                      scenario.remoteLoaders, scenario.csc);
    const ChannelConfig &cfg = rig.host.cfg;
    const ExperimentRig &pair = rig.pair;

    PhySession session;
    phyPrepareSession(session, cfg, payload, rig.host.cal);
    ChannelReport &rep = session.rep;

    // The parity spy loops until the trojan is done, so the
    // trojan's exit ends that session.
    const bool parity = cfg.phy.profile == PhyProfile::legacyParity;
    rep.completed = rig.run(
        [&](ThreadApi api) {
            return parity ? parityTrojanBody(api, *pair.crew,
                                             pair.shared.trojanVa,
                                             session)
                          : phyTrojanBody(api, *pair.crew,
                                          pair.shared.trojanVa,
                                          session);
        },
        [&](ThreadApi api) {
            return parity
                       ? paritySpyBody(api, pair.shared.spyVa, session)
                       : phySpyBody(api, pair.shared.spyVa, session);
        },
        rep.trojan,
        parity ? SinglePairRig::Finisher::trojan
               : SinglePairRig::Finisher::spy);

    phyFinalizeSession(session);
    rep.shared = pair.shared;
    // Payload-level accuracy and goodput; the wire rate keeps the
    // FEC expansion factor visible next to them, and the parity
    // chain's NACK/retransmission counts are the retry cost. A
    // session cut by the timeout ends at the last transmit, or at
    // the stop when the trojan never finished one (the parity
    // trojan records its end only as it exits).
    const TimingParams &timing = cfg.system.timing;
    const Tick tx_end = rep.trojan.txEnd ? rep.trojan.txEnd
                                         : pair.machine.sched.now();
    ChannelMetrics &m = rep.metrics;
    m = pair.score(rep.sent, rep.received, rep.trojan.txStart,
                   session.trojanDone ? session.trojanEnd : tx_end);
    m.rawKbps = timing.kbps(rep.phy.rawBitsSent, m.durationCycles);
    m.nacks = session.nacks;
    m.retransmits = session.retransmissions;
    rep.counters = rig.host.counters();
    pair.publish(rep.counters, rep.metrics);
    addPhyCounters(rep.counters, pair.counterPrefix(), cfg.phy.profile,
                   rep.phy);
    return std::move(rep);
}

} // namespace csim
