#include "channel/ecc.hh"

#include <algorithm>

#include "channel/trace_hooks.hh"
#include "common/logging.hh"

namespace csim
{

BitString
parityBits(const BitString &data)
{
    panic_if(data.size() != packetDataBits,
             "parity expects ", packetDataBits, " data bits");
    BitString parity;
    parity.reserve(packetParityBits);
    constexpr std::size_t chunk = 32;
    for (std::size_t c = 0; c < packetParityBits; ++c) {
        std::uint8_t p = 0;
        for (std::size_t i = 0; i < chunk; ++i)
            p ^= data[c * chunk + i] & 1;
        parity.push_back(p);
    }
    return parity;
}

BitString
encodePacket(std::uint8_t seq, const BitString &data512)
{
    panic_if(data512.size() != packetDataBits,
             "packet data must be ", packetDataBits, " bits");
    BitString out;
    out.reserve(packetTotalBits);
    const std::uint8_t inv = static_cast<std::uint8_t>(~seq);
    for (int i = 7; i >= 0; --i)
        out.push_back((seq >> i) & 1);
    for (int i = 7; i >= 0; --i)
        out.push_back((inv >> i) & 1);
    out.insert(out.end(), data512.begin(), data512.end());
    const BitString parity = parityBits(data512);
    out.insert(out.end(), parity.begin(), parity.end());
    return out;
}

std::optional<std::pair<std::uint8_t, BitString>>
decodePacket(const BitString &bits)
{
    if (bits.size() != packetTotalBits)
        return std::nullopt;
    std::uint8_t seq = 0, inv = 0;
    for (int i = 0; i < 8; ++i)
        seq = static_cast<std::uint8_t>((seq << 1) | (bits[i] & 1));
    for (int i = 8; i < 16; ++i)
        inv = static_cast<std::uint8_t>((inv << 1) | (bits[i] & 1));
    if (static_cast<std::uint8_t>(~seq) != inv)
        return std::nullopt;
    BitString data(bits.begin() + packetHeaderBits,
                   bits.begin() + packetHeaderBits + packetDataBits);
    const BitString expect = parityBits(data);
    for (std::size_t i = 0; i < packetParityBits; ++i) {
        if (expect[i] !=
            bits[packetHeaderBits + packetDataBits + i]) {
            return std::nullopt;
        }
    }
    return std::make_pair(seq, std::move(data));
}

namespace
{

/** Session-side state shared by the two coroutines via the report. */
struct SessionState
{
    bool trojanDone = false;
    /** Sync phase, then the session: txStart at sync end (payload
     *  clock starts), txEnd at trojan completion. */
    TrojanResult trojan;
};

Task
eccTrojanBody(ThreadApi api, PlacerCrew &crew, VAddr block,
              const ScenarioInfo &scenario,
              const CalibrationResult &cal, const ChannelParams &params,
              const EccParams &ecc, Tick period,
              const std::vector<BitString> &packets, EccReport &report,
              SessionState &state)
{
    co_await trojanSyncPhase(api, block, cal, params, state.trojan);
    state.trojan.txStart = api.now();
    const double cached_threshold = cal.dramBand.lo - 2.0;

    for (const BitString &packet : packets) {
        int attempts = 0;
        for (;;) {
            TrojanResult tr;
            co_await trojanTransmit(api, crew, block, scenario,
                                    params, period, packet, tr);
            report.rawBitsSent += packet.size();
            // Let the spy run into its end-of-packet detection.
            co_await api.spinUntil(
                tr.txEnd +
                static_cast<Tick>(params.endN + 2) * period);
            // Acknowledgement window: probe whether the spy is
            // holding B cached (its NACK signal).
            int cached = 0;
            for (int i = 0; i < ecc.ackSamples; ++i) {
                co_await api.flush(block);
                co_await api.spin(params.ts);
                const Tick lat = co_await api.load(block);
                if (static_cast<double>(lat) < cached_threshold)
                    ++cached;
            }
            const bool nack = cached >= ecc.nackThreshold;
            if (nack) {
                ++report.nacks;
                chEvent(api, TraceEventType::chNack,
                        static_cast<std::uint64_t>(attempts + 1));
            }
            // Settle before the next lead-in so the spy is back in
            // its wait-for-start phase.
            co_await api.spin(3 * period);
            if (!nack)
                break;
            ++report.retransmissions;
            chEvent(api, TraceEventType::chRetransmit,
                    report.rawBitsSent / packetTotalBits);
            if (++attempts > ecc.maxRetries) {
                chEvent(api, TraceEventType::chRetransmitExhausted,
                        static_cast<std::uint64_t>(attempts - 1));
                warn("ecc: giving up on a packet after ",
                     ecc.maxRetries, " retries");
                break;
            }
        }
    }
    crew.idle();
    state.trojanDone = true;
    state.trojan.txEnd = api.now();
}

Task
eccSpyBody(ThreadApi api, VAddr block, const ScenarioInfo &scenario,
           const CalibrationResult &cal, const ChannelParams &params,
           const EccParams &ecc, Tick period, int expected_packets,
           std::vector<BitString> &accepted, SessionState &state)
{
    LatencyBand tc = cal.band(scenario.csc);
    LatencyBand tb = cal.band(scenario.csb);
    LatencyBand dram = cal.dramBand;
    {
        std::vector<LatencyBand *> used = {&tc, &tb, &dram};
        claimGaps(used, params.gapClaim);
    }
    int last_seq = -1;

    while (static_cast<int>(accepted.size()) < expected_packets &&
           !state.trojanDone) {
        // Wait for the packet lead-in boundary.
        int consecutive_tb = 0;
        bool started = false;
        while (!started && !state.trojanDone) {
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
                accepted.push_back(decoded->second);
                last_seq = decoded->first;
                chEvent(api, TraceEventType::chPacketAccepted,
                        decoded->first);
            }
            // ACK (no NACK): stay quiet through the trojan's window.
            co_await api.spin(
                static_cast<Tick>(ecc.ackSamples + 2) * period);
        } else {
            // NACK: keep B cached while the trojan probes.
            const Tick until =
                api.now() +
                static_cast<Tick>(ecc.ackSamples + 4) * period;
            while (api.now() < until) {
                co_await api.load(block);
                co_await api.spin(params.helperGap);
            }
        }
    }
}

} // namespace

EccReport
runEccTransmission(const ChannelConfig &cfg_in,
                   const BitString &payload, const EccParams &ecc,
                   const CalibrationResult *cal)
{
    const ScenarioInfo &scenario = scenarioInfo(cfg_in.scenario);
    ExperimentRig rig(cfg_in, cal, scenario.localLoaders,
                      scenario.remoteLoaders, scenario.csc);
    const ChannelConfig &cfg = rig.cfg;

    EccReport report;
    report.payloadBits = payload.size();

    // Split into 512-bit packets, zero-padding the last one.
    std::vector<BitString> packets;
    for (std::size_t off = 0; off < payload.size();
         off += packetDataBits) {
        BitString data(
            payload.begin() + static_cast<std::ptrdiff_t>(off),
            payload.begin() + static_cast<std::ptrdiff_t>(
                                  std::min(off + packetDataBits,
                                           payload.size())));
        data.resize(packetDataBits, 0);
        packets.push_back(encodePacket(
            static_cast<std::uint8_t>(packets.size() & 0xff),
            data));
    }
    report.packets = static_cast<int>(packets.size());

    const Tick period =
        cfg.params.nominalSamplePeriod(cfg.system.timing);

    SessionState state;
    std::vector<BitString> accepted;
    // The spy loops until it sees trojanDone, so the trojan's exit
    // ends the session.
    report.completed = rig.run(
        [&](ThreadApi api) {
            return eccTrojanBody(api, *rig.crew, rig.shared.trojanVa,
                                 scenario, rig.cal, cfg.params, ecc,
                                 period, packets, report, state);
        },
        [&](ThreadApi api) {
            return eccSpyBody(api, rig.shared.spyVa, scenario,
                              rig.cal, cfg.params, ecc, period,
                              static_cast<int>(packets.size()),
                              accepted, state);
        },
        state.trojan, ExperimentRig::Finisher::trojan);

    // Reassemble and truncate to the payload length.
    BitString delivered;
    for (const BitString &data : accepted)
        delivered.insert(delivered.end(), data.begin(), data.end());
    if (delivered.size() > payload.size())
        delivered.resize(payload.size());
    report.delivered = delivered;
    for (std::size_t i = 0; i < payload.size(); ++i) {
        if (i >= delivered.size() || delivered[i] != payload[i])
            ++report.residualErrors;
    }
    const TrojanResult &session = state.trojan;
    report.durationCycles = session.txEnd > session.txStart
                                ? session.txEnd - session.txStart
                                : 0;
    report.effectiveKbps = cfg.system.timing.kbps(
        report.payloadBits, report.durationCycles);
    report.payloadKbps = cfg.system.timing.kbps(
        report.payloadBits -
            std::min<std::uint64_t>(report.residualErrors,
                                    report.payloadBits),
        report.durationCycles);
    return report;
}

} // namespace csim
