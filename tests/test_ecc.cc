/**
 * @file
 * Tests for the error-detection and retransmission scheme
 * (paper §VIII-C, Figure 10): the packet codec and the legacy-parity
 * chain runTransmission runs.
 */

#include <gtest/gtest.h>

#include "channel/ecc.hh"
#include "channel/experiment.hh"

namespace csim
{
namespace
{

ChannelConfig
baseConfig()
{
    ChannelConfig cfg;
    cfg.system.seed = 31337;
    cfg.scenario = Scenario::rexcC_lshB;
    cfg.phy.profile = PhyProfile::legacyParity;
    return cfg;
}

const CalibrationResult &
sharedCal()
{
    static const CalibrationResult cal = [] {
        return calibrate(baseConfig().system, 400,
                         baseConfig().params);
    }();
    return cal;
}

BitString
someData(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    return randomBits(rng, n);
}

TEST(ParityCodec, KnownVector)
{
    BitString data(packetDataBits, 0);
    // Chunk 0: one bit set -> odd parity 1; chunk 5: two bits -> 0.
    data[3] = 1;
    data[5 * 32 + 1] = 1;
    data[5 * 32 + 30] = 1;
    const BitString parity = parityBits(data);
    ASSERT_EQ(parity.size(), packetParityBits);
    EXPECT_EQ(parity[0], 1);
    EXPECT_EQ(parity[5], 0);
    EXPECT_EQ(parity[1], 0);
}

TEST(ParityCodec, WrongSizePanics)
{
    EXPECT_THROW(parityBits(BitString(100, 0)), std::logic_error);
    EXPECT_THROW(encodePacket(0, BitString(100, 0)),
                 std::logic_error);
}

TEST(PacketCodec, RoundTrip)
{
    const BitString data = someData(1, packetDataBits);
    const BitString wire = encodePacket(0xa5, data);
    EXPECT_EQ(wire.size(), packetTotalBits);
    const auto decoded = decodePacket(wire);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->first, 0xa5);
    EXPECT_EQ(decoded->second, data);
}

TEST(PacketCodec, DetectsDataFlip)
{
    const BitString data = someData(2, packetDataBits);
    BitString wire = encodePacket(1, data);
    wire[packetHeaderBits + 17] ^= 1;
    EXPECT_FALSE(decodePacket(wire).has_value());
}

TEST(PacketCodec, DetectsParityFlip)
{
    const BitString data = someData(3, packetDataBits);
    BitString wire = encodePacket(1, data);
    wire[packetHeaderBits + packetDataBits + 2] ^= 1;
    EXPECT_FALSE(decodePacket(wire).has_value());
}

TEST(PacketCodec, DetectsHeaderCorruption)
{
    const BitString data = someData(4, packetDataBits);
    BitString wire = encodePacket(1, data);
    wire[3] ^= 1;
    EXPECT_FALSE(decodePacket(wire).has_value());
}

TEST(PacketCodec, DetectsWrongLength)
{
    const BitString data = someData(5, packetDataBits);
    BitString wire = encodePacket(1, data);
    wire.pop_back();
    EXPECT_FALSE(decodePacket(wire).has_value());
    wire.push_back(0);
    wire.push_back(0);
    EXPECT_FALSE(decodePacket(wire).has_value());
}

TEST(PacketCodec, DoubleFlipInOneChunkEscapesParity)
{
    // The known limitation of per-chunk parity: an even number of
    // flips inside one 32-bit chunk is undetectable.
    const BitString data = someData(6, packetDataBits);
    BitString wire = encodePacket(1, data);
    wire[packetHeaderBits + 40] ^= 1;
    wire[packetHeaderBits + 41] ^= 1;
    const auto decoded = decodePacket(wire);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_NE(decoded->second, data);
}

TEST(EccSession, DeliversPayloadWithoutNoise)
{
    ChannelConfig cfg = baseConfig();
    const BitString payload = someData(7, 1024);
    const ChannelReport report =
        runTransmission(cfg, payload, &sharedCal());
    EXPECT_TRUE(report.completed);
    EXPECT_EQ(report.phy.profileUsed, PhyProfile::legacyParity);
    EXPECT_EQ(report.phy.frames, 2);
    EXPECT_EQ(report.phy.residualErrors, 0u);
    EXPECT_EQ(report.received, payload);
    EXPECT_GT(report.metrics.effectiveKbps, 0.0);
    EXPECT_GE(report.phy.rawBitsSent, 2 * packetTotalBits);
}

TEST(EccSession, ShortPayloadIsPadded)
{
    ChannelConfig cfg = baseConfig();
    const BitString payload = someData(8, 100);
    const ChannelReport report =
        runTransmission(cfg, payload, &sharedCal());
    EXPECT_EQ(report.phy.frames, 1);
    EXPECT_EQ(report.phy.residualErrors, 0u);
    EXPECT_EQ(report.received.size(), 100u);
    EXPECT_EQ(report.received, payload);
}

TEST(EccSession, RecoversUnderMediumNoise)
{
    ChannelConfig cfg = baseConfig();
    cfg.noiseThreads = 4;
    const BitString payload = someData(9, 1024);
    const ChannelReport report =
        runTransmission(cfg, payload, &sharedCal());
    EXPECT_TRUE(report.completed);
    // Per-chunk parity misses an even number of flips within one
    // 32-bit chunk (see PacketCodec.DoubleFlipInOneChunkEscapesParity)
    // so a handful of residual errors can survive heavy noise; the
    // scheme recovers everything else via retransmission.
    EXPECT_LE(report.phy.residualErrors, 8u)
        << "retransmissions: " << report.metrics.retransmits;
    EXPECT_EQ(report.received.size(), payload.size());
}

TEST(EccSession, NoiseCostsThroughput)
{
    ChannelConfig cfg = baseConfig();
    const BitString payload = someData(10, 1024);
    const ChannelReport quiet =
        runTransmission(cfg, payload, &sharedCal());
    cfg.noiseThreads = 4;
    const ChannelReport noisy =
        runTransmission(cfg, payload, &sharedCal());
    EXPECT_EQ(quiet.phy.residualErrors, 0u);
    // Under noise a rare even-flip-per-chunk corruption can escape
    // the parity check (see DoubleFlipInOneChunkEscapesParity).
    EXPECT_LE(noisy.phy.residualErrors, 8u);
    EXPECT_LT(noisy.metrics.effectiveKbps,
              quiet.metrics.effectiveKbps * 1.05);
}

TEST(EccSession, LlcNotifyDefenseIsTheTimingChange)
{
    // The parity+NACK session runs under the same defended timing
    // model as every other single-pair run.
    const BitString payload = someData(11, 100);
    ChannelConfig defended = baseConfig();
    defended.defense = Defense::llcNotify;
    ChannelConfig direct = baseConfig();
    direct.system.timing.llcNotifiedOfUpgrade = true;
    const ChannelReport a = runTransmission(defended, payload);
    const ChannelReport b = runTransmission(direct, payload);
    EXPECT_EQ(a.received, b.received);
    EXPECT_EQ(a.metrics.durationCycles, b.metrics.durationCycles);
    EXPECT_EQ(a.phy.rawBitsSent, b.phy.rawBitsSent);
}

TEST(EccSession, TimedOutSessionIsTimedToTheStop)
{
    // The parity trojan records its end only as it exits: a session
    // the safety timeout cuts short is timed up to the stop, not
    // reported as a zero-cycle run.
    ChannelConfig cfg = baseConfig();
    const BitString payload = someData(10, 1024);
    const ChannelReport full =
        runTransmission(cfg, payload, &sharedCal());
    ASSERT_TRUE(full.completed);
    cfg.timeout = full.trojan.txStart + full.metrics.durationCycles / 2;
    const ChannelReport cut =
        runTransmission(cfg, payload, &sharedCal());
    EXPECT_FALSE(cut.completed);
    EXPECT_EQ(cut.trojan.txEnd, 0u);
    const Tick stop = cut.trojan.txStart + cut.metrics.durationCycles;
    EXPECT_GE(stop, cfg.timeout);
    EXPECT_LT(stop, full.trojan.txEnd);
    EXPECT_GT(cut.metrics.rawKbps, 0.0);
}

TEST(EccSession, RetryCostReachesChannelMetrics)
{
    // Past the scheme's reliable rate NACK windows fire; the counts
    // must reach the common metrics and counters unchanged.
    ChannelConfig cfg = baseConfig();
    cfg.params = ChannelParams::forTargetKbps(550, cfg.system.timing);
    const BitString payload = someData(12, packetDataBits);
    const ChannelReport report =
        runTransmission(cfg, payload, &sharedCal());
    EXPECT_GT(report.metrics.nacks, 0u);
    EXPECT_GE(report.metrics.nacks, report.metrics.retransmits);
    EXPECT_EQ(report.counters.value("ch.nacks"), report.metrics.nacks);
    EXPECT_EQ(report.counters.value("ch.retransmits"),
              report.metrics.retransmits);
}

} // namespace
} // namespace csim
