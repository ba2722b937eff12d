/**
 * @file
 * Tests for the multi-bit symbol channel (paper §VIII-D), the
 * `coherence-2bit` leakage vector.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "channel/experiment.hh"
#include "channel/symbols.hh"
#include "channel/vector.hh"
#include "config/resolver.hh"
#include "trace/recorder.hh"

namespace csim
{
namespace
{

ChannelConfig
baseConfig()
{
    ChannelConfig cfg;
    cfg.system.seed = 777;
    cfg.vector = VectorKind::coherence2bit;
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
    const ChannelReport report =
        runTransmission(cfg, payload, &sharedCal());
    EXPECT_TRUE(report.completed);
    EXPECT_EQ(bitsToSymbols(report.sent, bitsPerSymbol).size(), 60u);
    EXPECT_GE(report.metrics.accuracy, 0.9);
    // Most symbols arrive; each carries 2 bits.
    EXPECT_NEAR(static_cast<double>(report.received.size()) /
                    bitsPerSymbol,
                60.0, 6.0);
}

TEST(SymbolChannel, OddPayloadIsPadded)
{
    // The trojan pads "101" to the symbols "10" "10" on the wire;
    // sent stays the caller's payload and the spy drops the pad's
    // slot from what it received.
    ChannelConfig cfg = baseConfig();
    const BitString payload = bitsFromString("101");
    const ChannelReport report =
        runTransmission(cfg, payload, &sharedCal());
    EXPECT_EQ(report.sent, payload);
    EXPECT_EQ(report.received, payload);
}

TEST(SymbolChannel, AllFourSymbolValuesSurviveTransmission)
{
    // The paper's Figure 11 shows a pattern covering all four
    // symbol values; check each value round-trips.
    ChannelConfig cfg = baseConfig();
    const std::vector<int> symbols = {0, 1, 2, 3, 3, 2, 1, 0,
                                      2, 0, 3, 1};
    const BitString payload = symbolsToBits(symbols, bitsPerSymbol);
    const ChannelReport report =
        runTransmission(cfg, payload, &sharedCal());
    EXPECT_TRUE(report.completed);
    EXPECT_GE(report.metrics.accuracy, 0.9);
}

TEST(SymbolChannel, FasterThanBinaryAtSameSamplingRate)
{
    // The whole point of §VIII-D: more bits per observed sample.
    ChannelConfig cfg = baseConfig();
    Rng rng(12);
    const BitString payload = randomBits(rng, 100);
    const ChannelReport sym =
        runTransmission(cfg, payload, &sharedCal());
    cfg.vector = VectorKind::coherence;
    const ChannelReport bin =
        runTransmission(cfg, payload, &sharedCal());
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
    const ChannelReport a = runTransmission(defended, payload);
    const ChannelReport b = runTransmission(direct, payload);
    EXPECT_EQ(a.received, b.received);
    EXPECT_EQ(a.metrics.durationCycles, b.metrics.durationCycles);
    const ChannelReport open =
        runTransmission(baseConfig(), payload);
    EXPECT_NE(a.received, open.received);
}

TEST(SymbolChannel, CollectsTrace)
{
    ChannelConfig cfg = baseConfig();
    cfg.collectTrace = true;
    Rng rng(13);
    const BitString payload = randomBits(rng, 36);
    const ChannelReport report =
        runTransmission(cfg, payload, &sharedCal());
    EXPECT_FALSE(report.spy.trace.empty());
}

TEST(SymbolChannel, PublishesBitMilestones)
{
    // The health report's error budget pairs chTxBit with chRxBit.
    ChannelConfig cfg = baseConfig();
    TraceRecorder recorder;
    cfg.taps.push_back(&recorder);
    const BitString payload = bitsFromString("1001010001");
    const ChannelReport report =
        runTransmission(cfg, payload, &sharedCal());
    const std::vector<TraceEvent> events = recorder.drain();
    auto count = [&events](TraceEventType type) {
        return static_cast<std::size_t>(std::count_if(
            events.begin(), events.end(),
            [type](const TraceEvent &ev) { return ev.type == type; }));
    };
    EXPECT_EQ(report.received, payload);
    EXPECT_EQ(count(TraceEventType::chTxBit), payload.size());
    EXPECT_EQ(count(TraceEventType::chRxBit), payload.size());
    EXPECT_EQ(count(TraceEventType::chTxEnd), 1u);
    EXPECT_EQ(count(TraceEventType::chRxEnd), 1u);
}

TEST(SymbolVector, ResolvesFromTheRegistryAndRunsThroughRunExperiment)
{
    EXPECT_EQ(makeLeakageVector(VectorKind::coherence2bit)->kind(),
              VectorKind::coherence2bit);
    ConfigResolver res;
    res.applyOverride("system.seed", "777", "test");
    res.applyOverride("channel.vector", "coherence-2bit", "test");
    res.applyOverride("payload.bits", "120", "test");
    const ExperimentSpec &spec = res.spec();
    ASSERT_EQ(spec.channel.vector, VectorKind::coherence2bit);
    const ExperimentResult result = runExperiment(spec, &sharedCal());
    EXPECT_EQ(result.kind, ExperimentKind::single);
    EXPECT_TRUE(result.completed());
    EXPECT_TRUE(result.channel.spy.sawTransmission);
    EXPECT_GE(result.channel.metrics.accuracy, 0.9);
}

TEST(SymbolVector, KeepsTheSpySocketLineOnRemoteScenarios)
{
    // The symbol channel cycles through all four combos, so it keeps
    // a socket-0-homed line even where the scenario's csc is remote
    // (the line the standalone symbol driver picked under this
    // seed), while the binary coherence channel moves to socket 1.
    ChannelConfig cfg = baseConfig();
    cfg.scenario = Scenario::rexcC_lshB;
    const ChannelReport report = runTransmission(
        cfg, bitsFromString("10"), &sharedCal());
    EXPECT_EQ(report.shared.paddr, 0x10000000u);

    cfg.vector = VectorKind::coherence;
    const ScenarioInfo &sc = scenarioInfo(cfg.scenario);
    const SinglePairRig binary(cfg, &sharedCal(), sc.localLoaders,
                               sc.remoteLoaders, sc.csc);
    EXPECT_NE(binary.pair.shared.paddr, report.shared.paddr);
}

TEST(SymbolVector, FleetOfTwoPairsCompletes)
{
    ExperimentSpec spec;
    spec.channel.system.seed = 777;
    spec.channel.system.coresPerSocket = 16;
    spec.channel.vector = VectorKind::coherence2bit;
    spec.fleet.pairs = 2;
    spec.payload.bits = 32;
    const ExperimentResult result = runExperiment(spec);
    EXPECT_EQ(result.kind, ExperimentKind::fleet);
    EXPECT_TRUE(result.completed());
    ASSERT_EQ(result.fleet.pairs.size(), 2u);
    for (const PairReport &pr : result.fleet.pairs)
        EXPECT_GE(pr.metrics.accuracy, 0.9) << "pair " << pr.pairId;
}

} // namespace
} // namespace csim
