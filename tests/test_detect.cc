/**
 * @file
 * Tests for the CC-Hunter-style coherence covert-channel detector.
 */

#include <gtest/gtest.h>

#include "channel/channel.hh"
#include "detect/cchunter.hh"

namespace csim
{
namespace
{

TraceEvent
flushEv(CoreId core, PAddr line, Tick when)
{
    return TraceEvent{TraceEventType::memFlush, TraceCategory::mem,
                      core, when, line,
                      static_cast<std::uint64_t>(ServedBy::none), 0};
}

TraceEvent
loadEv(CoreId core, PAddr line, Tick when)
{
    return TraceEvent{TraceEventType::memLoad, TraceCategory::mem,
                      core, when, line,
                      static_cast<std::uint64_t>(ServedBy::localLlc),
                      0};
}

TEST(Detector, FlagsPeriodicAlternatingFlushTrain)
{
    CoherenceChannelDetector det;
    const PAddr line = 0x1000;
    Tick now = 1'000;
    for (int i = 0; i < 80; ++i) {
        det.observe(flushEv(0, line, now));
        det.observe(loadEv(3, line, now + 200));  // trojan reload
        now += 3'000;
    }
    EXPECT_TRUE(det.anySuspicious());
    const LineVerdict v = det.verdict(line);
    EXPECT_TRUE(v.suspicious);
    EXPECT_GE(v.flushes, det.params().minFlushes);
    EXPECT_LT(v.intervalCv, det.params().maxIntervalCv);
    EXPECT_GT(v.alternation, det.params().minAlternation);
    EXPECT_GT(v.flaggedAt, 0u);
}

TEST(Detector, IgnoresIrregularFlushes)
{
    CoherenceChannelDetector det;
    const PAddr line = 0x1000;
    Rng rng(3);
    Tick now = 1'000;
    for (int i = 0; i < 120; ++i) {
        det.observe(flushEv(0, line, now));
        det.observe(loadEv(3, line, now + 200));
        // Erratic cadence: CV far above the periodicity threshold.
        now += 500 + rng.below(20'000);
    }
    EXPECT_FALSE(det.anySuspicious());
}

TEST(Detector, IgnoresSingleSidedFlushing)
{
    // Periodic flushes with no other core ever touching the line
    // (e.g. a process managing its own non-temporal data) must not
    // be flagged: there is no second party.
    CoherenceChannelDetector det;
    const PAddr line = 0x2000;
    Tick now = 1'000;
    for (int i = 0; i < 120; ++i) {
        det.observe(flushEv(2, line, now));
        det.observe(loadEv(2, line, now + 150));  // same core
        now += 3'000;
    }
    EXPECT_FALSE(det.anySuspicious());
}

TEST(Detector, PauseResetsTheTrain)
{
    CoherenceChannelDetector det;
    const PAddr line = 0x3000;
    Tick now = 1'000;
    auto burst = [&](int n) {
        for (int i = 0; i < n; ++i) {
            det.observe(flushEv(0, line, now));
            det.observe(loadEv(5, line, now + 100));
            now += 2'500;
        }
    };
    // Two sub-threshold bursts separated by a long pause must not
    // accumulate into a flagged train.
    burst(30);
    now += 10'000'000;
    burst(30);
    EXPECT_FALSE(det.anySuspicious());
    burst(40);  // continuing the second train past the threshold
    EXPECT_TRUE(det.anySuspicious());
}

TEST(Detector, TracksLinesIndependently)
{
    CoherenceChannelDetector det;
    Tick now = 1'000;
    for (int i = 0; i < 80; ++i) {
        det.observe(flushEv(0, 0x1000, now));
        det.observe(loadEv(3, 0x1000, now + 100));
        det.observe(flushEv(1, 0x8000, now + 10));
        // 0x8000 has no second party.
        now += 3'000;
    }
    EXPECT_TRUE(det.verdict(0x1000).suspicious);
    EXPECT_FALSE(det.verdict(0x8000).suspicious);
    EXPECT_EQ(det.suspiciousLines().size(), 1u);
}

TEST(Detector, UnknownLineVerdictIsBenign)
{
    CoherenceChannelDetector det;
    const LineVerdict v = det.verdict(0xdead000);
    EXPECT_FALSE(v.suspicious);
    EXPECT_EQ(v.flushes, 0u);
}

TEST(DetectorEndToEnd, FlagsTheCovertChannel)
{
    // Attach the detector to a live machine running the actual
    // attack; it must flag the shared block's line.
    ChannelConfig cfg;
    cfg.system.seed = 77;
    cfg.scenario = Scenario::rexcC_lshB;
    const CalibrationResult cal = calibrate(cfg.system, 300);

    const ScenarioInfo &scenario = scenarioInfo(cfg.scenario);
    SinglePairRig rig(cfg, &cal, scenario.localLoaders,
                      scenario.remoteLoaders, scenario.csc);
    const ExperimentRig &pair = rig.pair;
    CoherenceChannelDetector detector;
    detector.attach(pair.machine.mem.trace(), cfg.system.numCores());

    Rng rng(4);
    const BitString payload = randomBits(rng, 60);
    TrojanResult trojan;
    SpyResult spy;
    rig.run(
        [&](ThreadApi api) {
            return trojanBody(api, *pair.crew, pair.shared.trojanVa,
                              scenario, cal, cfg.params,
                              cfg.system.timing, payload, trojan);
        },
        [&](ThreadApi api) {
            return spyBody(api, pair.shared.spyVa, scenario, cal,
                           cfg.params, spy, false);
        },
        trojan);

    EXPECT_TRUE(detector.anySuspicious());
    const LineVerdict v =
        detector.verdict(lineAlign(pair.shared.paddr));
    EXPECT_TRUE(v.suspicious);
    // Detection happened well before the transmission finished.
    EXPECT_LT(v.flaggedAt, trojan.txEnd);
    EXPECT_GT(detector.eventsObserved(), 1'000u);
}

TEST(DetectorEndToEnd, QuietOnNoiseOnlyWorkloads)
{
    // kcbench-style memory pressure alone must not trip the
    // detector: it performs no flushes at all.
    SystemConfig sys;
    sys.seed = 78;
    Machine m(sys);
    CoherenceChannelDetector detector;
    detector.attach(m.mem.trace(), sys.numCores());
    spawnNoiseAgents(m, 4, {4, 5, 8, 9}, NoiseConfig{}, 5);
    m.sched.run(3'000'000);
    EXPECT_GT(detector.eventsObserved(), 1'000u);
    EXPECT_FALSE(detector.anySuspicious());
}

} // namespace
} // namespace csim
