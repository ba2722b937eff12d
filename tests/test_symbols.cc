/**
 * @file
 * Tests for the multi-bit symbol channel (paper §VIII-D).
 */

#include <gtest/gtest.h>

#include "channel/symbols.hh"
#include "channel/vector.hh"

namespace csim
{
namespace
{

ChannelConfig
baseConfig()
{
    ChannelConfig cfg;
    cfg.system.seed = 777;
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

TEST(SymbolMapping, FourValuesCoverAllCombos)
{
    EXPECT_EQ(symbolCombo(0), Combo::localShared);
    EXPECT_EQ(symbolCombo(1), Combo::localExcl);
    EXPECT_EQ(symbolCombo(2), Combo::remoteShared);
    EXPECT_EQ(symbolCombo(3), Combo::remoteExcl);
    EXPECT_THROW(symbolCombo(4), std::logic_error);
    EXPECT_THROW(symbolCombo(-1), std::logic_error);
}

TEST(SymbolChannel, TransmitsTwoBitsPerSymbol)
{
    ChannelConfig cfg = baseConfig();
    Rng rng(11);
    const BitString payload = randomBits(rng, 120);
    const SymbolReport report =
        runSymbolTransmission(cfg, payload, {}, &sharedCal());
    EXPECT_TRUE(report.completed);
    EXPECT_EQ(report.sentSymbols.size(), 60u);
    EXPECT_GE(report.metrics.accuracy, 0.9);
    // Most symbols arrive; each carries 2 bits.
    EXPECT_NEAR(static_cast<double>(report.receivedSymbols.size()),
                60.0, 6.0);
}

TEST(SymbolChannel, OddPayloadIsPadded)
{
    ChannelConfig cfg = baseConfig();
    const BitString payload = bitsFromString("101");
    const SymbolReport report =
        runSymbolTransmission(cfg, payload, {}, &sharedCal());
    EXPECT_EQ(report.sent.size(), 4u);
    EXPECT_EQ(report.sentSymbols.size(), 2u);
    EXPECT_EQ(report.sentSymbols[0], 2);  // "10"
    EXPECT_EQ(report.sentSymbols[1], 2);  // "1" padded to "10"
}

TEST(SymbolChannel, AllFourSymbolValuesSurviveTransmission)
{
    // The paper's Figure 11 shows a pattern covering all four
    // symbol values; check each value round-trips.
    ChannelConfig cfg = baseConfig();
    const std::vector<int> symbols = {0, 1, 2, 3, 3, 2, 1, 0,
                                      2, 0, 3, 1};
    const BitString payload = symbolsToBits(symbols, bitsPerSymbol);
    const SymbolReport report =
        runSymbolTransmission(cfg, payload, {}, &sharedCal());
    EXPECT_TRUE(report.completed);
    EXPECT_GE(report.metrics.accuracy, 0.9);
}

TEST(SymbolChannel, FasterThanBinaryAtSameSamplingRate)
{
    // The whole point of §VIII-D: more bits per observed sample.
    ChannelConfig cfg = baseConfig();
    Rng rng(12);
    const BitString payload = randomBits(rng, 100);
    const SymbolReport sym =
        runSymbolTransmission(cfg, payload, {}, &sharedCal());
    const ChannelReport bin =
        runVectorTransmission(cfg, payload, &sharedCal());
    EXPECT_GE(sym.metrics.accuracy, 0.9);
    EXPECT_GT(sym.metrics.rawKbps, bin.metrics.rawKbps * 1.5);
}

TEST(SymbolChannel, LlcNotifyDefenseIsTheTimingChange)
{
    // Defense::llcNotify is the hardware change of §VIII-E: a run
    // under it must be the run with the timing flag set directly,
    // calibration included.
    Rng rng(14);
    const BitString payload = randomBits(rng, 40);
    ChannelConfig defended = baseConfig();
    defended.defense = Defense::llcNotify;
    ChannelConfig direct = baseConfig();
    direct.system.timing.llcNotifiedOfUpgrade = true;
    const SymbolReport a = runSymbolTransmission(defended, payload);
    const SymbolReport b = runSymbolTransmission(direct, payload);
    EXPECT_EQ(a.receivedSymbols, b.receivedSymbols);
    EXPECT_EQ(a.metrics.durationCycles, b.metrics.durationCycles);
    const SymbolReport open =
        runSymbolTransmission(baseConfig(), payload);
    EXPECT_NE(a.receivedSymbols, open.receivedSymbols);
}

TEST(SymbolChannel, CollectsTrace)
{
    ChannelConfig cfg = baseConfig();
    cfg.collectTrace = true;
    Rng rng(13);
    const BitString payload = randomBits(rng, 36);
    const SymbolReport report =
        runSymbolTransmission(cfg, payload, {}, &sharedCal());
    EXPECT_FALSE(report.trace.empty());
}

} // namespace
} // namespace csim
