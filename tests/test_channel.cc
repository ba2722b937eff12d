/**
 * @file
 * Tests for the covert-channel stack: combos and Table I scenarios,
 * calibration, the translator, the placer crew, synchronization and
 * full end-to-end transmissions for every scenario.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "channel/placer.hh"
#include "channel/experiment.hh"
#include "channel/vector.hh"
#include "common/edit_distance.hh"
#include "common/random.hh"
#include "config/presets.hh"
#include "config/resolver.hh"
#include "sim/scheduler.hh"

namespace csim
{
namespace
{

ChannelConfig
baseConfig()
{
    ChannelConfig cfg;
    cfg.system.seed = 1234;
    return cfg;
}

/** One calibration shared by all end-to-end tests (expensive-ish). */
const CalibrationResult &
sharedCal()
{
    static const CalibrationResult cal = [] {
        return calibrate(baseConfig().system, 400,
                         baseConfig().params);
    }();
    return cal;
}

TEST(Combos, NamesAndLoaderCounts)
{
    EXPECT_STREQ(comboName(Combo::localShared), "LShared");
    EXPECT_STREQ(comboName(Combo::remoteExcl), "RExcl");
    EXPECT_EQ(comboLocalLoaders(Combo::localShared), 2);
    EXPECT_EQ(comboLocalLoaders(Combo::localExcl), 1);
    EXPECT_EQ(comboLocalLoaders(Combo::remoteShared), 0);
    EXPECT_EQ(comboRemoteLoaders(Combo::remoteShared), 2);
    EXPECT_EQ(comboRemoteLoaders(Combo::remoteExcl), 1);
    EXPECT_EQ(comboRemoteLoaders(Combo::localExcl), 0);
}

TEST(Combos, BaseLatenciesAreOrdered)
{
    TimingParams t;
    EXPECT_LT(comboBaseLatency(Combo::localShared, t),
              comboBaseLatency(Combo::localExcl, t));
    EXPECT_LT(comboBaseLatency(Combo::localExcl, t),
              comboBaseLatency(Combo::remoteShared, t));
    EXPECT_LT(comboBaseLatency(Combo::remoteShared, t),
              comboBaseLatency(Combo::remoteExcl, t));
}

TEST(Combos, ExpectedServiceMapping)
{
    EXPECT_EQ(comboExpectedService(Combo::localShared),
              ServedBy::localLlc);
    EXPECT_EQ(comboExpectedService(Combo::localExcl),
              ServedBy::localOwner);
    EXPECT_EQ(comboExpectedService(Combo::remoteShared),
              ServedBy::remoteLlc);
    EXPECT_EQ(comboExpectedService(Combo::remoteExcl),
              ServedBy::remoteOwner);
}

/** Table I: scenario list, notation and trojan thread counts. */
struct TableICase
{
    Scenario id;
    const char *notation;
    int local;
    int remote;
};

class TableITest : public ::testing::TestWithParam<TableICase>
{};

TEST_P(TableITest, MatchesPaper)
{
    const auto &[id, notation, local, remote] = GetParam();
    const ScenarioInfo &info = scenarioInfo(id);
    EXPECT_STREQ(info.notation, notation);
    EXPECT_EQ(info.localLoaders, local);
    EXPECT_EQ(info.remoteLoaders, remote);
    EXPECT_EQ(info.localLoaders + info.remoteLoaders,
              std::max(comboLocalLoaders(info.csc),
                       comboLocalLoaders(info.csb)) +
                  std::max(comboRemoteLoaders(info.csc),
                           comboRemoteLoaders(info.csb)));
}

INSTANTIATE_TEST_SUITE_P(
    AllRows, TableITest,
    ::testing::Values(
        TableICase{Scenario::lexcC_lshB, "LExclc-LSharedb", 2, 0},
        TableICase{Scenario::rexcC_rshB, "RExclc-RSharedb", 0, 2},
        TableICase{Scenario::rexcC_lexB, "RExclc-LExclb", 1, 1},
        TableICase{Scenario::rexcC_lshB, "RExclc-LSharedb", 2, 1},
        TableICase{Scenario::rshC_lexB, "RSharedc-LExclb", 1, 2},
        TableICase{Scenario::rshC_lshB, "RSharedc-LSharedb", 2, 2}));

TEST(Calibration, BandsAreDistinctAndNearModelMeans)
{
    const CalibrationResult &cal = sharedCal();
    const TimingParams t;
    EXPECT_TRUE(cal.hasRemote);
    for (Combo c : allCombos()) {
        EXPECT_EQ(cal.comboSamples(c).count(), 400u);
        EXPECT_NEAR(cal.comboSamples(c).mean(),
                    static_cast<double>(comboBaseLatency(c, t)),
                    10.0)
            << comboName(c);
        EXPECT_TRUE(cal.band(c).contains(
            static_cast<double>(comboBaseLatency(c, t))));
    }
    EXPECT_NEAR(cal.dramSamples.mean(),
                static_cast<double>(t.dramLat()), 12.0);
    // Bands are ordered like the paper's Figure 2.
    EXPECT_LT(cal.band(Combo::localShared).mid(),
              cal.band(Combo::localExcl).mid());
    EXPECT_LT(cal.band(Combo::localExcl).mid(),
              cal.band(Combo::remoteShared).mid());
    EXPECT_LT(cal.band(Combo::remoteShared).mid(),
              cal.band(Combo::remoteExcl).mid());
    EXPECT_LT(cal.band(Combo::remoteExcl).mid(), cal.dramBand.mid());
}

TEST(Calibration, SingleSocketSkipsRemoteCombos)
{
    SystemConfig cfg = baseConfig().system;
    cfg.sockets = 1;
    const CalibrationResult cal = calibrate(cfg, 100);
    EXPECT_FALSE(cal.hasRemote);
    EXPECT_EQ(cal.comboSamples(Combo::remoteShared).count(), 0u);
    EXPECT_GT(cal.comboSamples(Combo::localShared).count(), 0u);
}

TEST(ClaimGapsTest, ExtendsTowardNextBand)
{
    LatencyBand a{90, 110};
    LatencyBand b{180, 200};
    LatencyBand c{340, 370};
    std::vector<LatencyBand *> bands = {&c, &a, &b};
    claimGaps(bands, 0.5);
    EXPECT_DOUBLE_EQ(a.hi, 110 + 0.5 * (180 - 110 - 8));
    EXPECT_DOUBLE_EQ(b.hi, 200 + 0.5 * (340 - 200 - 8));
    EXPECT_DOUBLE_EQ(c.hi, 370.0);  // top band untouched
    EXPECT_DOUBLE_EQ(a.lo, 90.0);   // lower edges untouched
}

TEST(ClaimGapsTest, TinyGapsAndZeroFractionAreNoOps)
{
    LatencyBand a{90, 110};
    LatencyBand b{112, 130};
    std::vector<LatencyBand *> bands = {&a, &b};
    claimGaps(bands, 0.5);
    EXPECT_DOUBLE_EQ(a.hi, 110.0);  // gap of 2 <= guard
    std::vector<LatencyBand *> bands2 = {&a, &b};
    claimGaps(bands2, 0.0);
    EXPECT_DOUBLE_EQ(a.hi, 110.0);
}

TEST(Classify, BandsAndOverlapResolution)
{
    const LatencyBand tc{120, 150};
    const LatencyBand tb{90, 125};  // overlaps tc in [120, 125]
    EXPECT_EQ(classifySample(135, tc, tb),
              SampleClass::communication);
    EXPECT_EQ(classifySample(95, tc, tb), SampleClass::boundary);
    EXPECT_EQ(classifySample(300, tc, tb), SampleClass::outOfBand);
    // 124 is nearer tb's centre (107.5) than tc's (135).
    EXPECT_EQ(classifySample(121, tc, tb), SampleClass::boundary);
    // 125 is 10 from tc's centre... still nearer tb? |125-107.5|=17.5
    // vs |125-135|=10 -> communication.
    EXPECT_EQ(classifySample(125, tc, tb),
              SampleClass::communication);
}

TEST(Translator, BasicRuns)
{
    // B B C C C C B B C B B -> '1' (4 > thold 3), '0' (1).
    IncrementalTranslator tr(3);
    const SampleClass B = SampleClass::boundary;
    const SampleClass C = SampleClass::communication;
    BitString bits;
    for (SampleClass s : {B, B, C, C, C, C, B, B, C, B, B}) {
        if (auto bit = tr.feed(s))
            bits.push_back(static_cast<std::uint8_t>(*bit));
    }
    if (auto bit = tr.finish())
        bits.push_back(static_cast<std::uint8_t>(*bit));
    EXPECT_EQ(bitsToString(bits), "10");
}

TEST(Translator, OutOfBandSamplesAreSkipped)
{
    IncrementalTranslator tr(3);
    const SampleClass B = SampleClass::boundary;
    const SampleClass C = SampleClass::communication;
    const SampleClass X = SampleClass::outOfBand;
    BitString bits;
    // An OOB mid-run neither breaks nor extends the run.
    for (SampleClass s : {B, C, C, X, C, C, B}) {
        if (auto bit = tr.feed(s))
            bits.push_back(static_cast<std::uint8_t>(*bit));
    }
    EXPECT_EQ(bitsToString(bits), "1");
}

TEST(Translator, IgnoresLeadingCommunicationBeforeFirstBoundary)
{
    IncrementalTranslator tr(3);
    const SampleClass B = SampleClass::boundary;
    const SampleClass C = SampleClass::communication;
    BitString bits;
    for (SampleClass s : {C, C, C, B, C, B}) {
        if (auto bit = tr.feed(s))
            bits.push_back(static_cast<std::uint8_t>(*bit));
    }
    EXPECT_EQ(bitsToString(bits), "0");
}

TEST(Translator, FinishFlushesPendingRun)
{
    IncrementalTranslator tr(3);
    const SampleClass B = SampleClass::boundary;
    const SampleClass C = SampleClass::communication;
    for (SampleClass s : {B, C, C, C, C, C})
        tr.feed(s);
    const auto bit = tr.finish();
    ASSERT_TRUE(bit.has_value());
    EXPECT_EQ(*bit, 1);
    EXPECT_FALSE(tr.finish().has_value());
}

TEST(TranslateTraceTest, DecodesSyntheticTrace)
{
    const LatencyBand tc{115, 135};
    const LatencyBand tb{88, 110};
    std::vector<SpySample> trace;
    auto push = [&](Tick lat, int n) {
        for (int i = 0; i < n; ++i)
            trace.push_back(SpySample{0, lat});
    };
    push(98, 3);   // boundary
    push(124, 5);  // '1'
    push(98, 3);
    push(124, 1);  // '0'
    push(98, 3);
    push(124, 4);  // '1'
    push(355, 2);  // trailing out-of-band
    EXPECT_EQ(bitsToString(translateTrace(trace, tc, tb, 3)), "101");
}

TEST(PlacerTest, CrewPlacesEveryCombo)
{
    SystemConfig cfg = baseConfig().system;
    Machine m(cfg);
    Process &proc = m.kernel.createProcess("trojan");
    const VAddr block = proc.mmap(pageBytes);
    ChannelParams params;
    PlacerCrew crew(m.kernel, m.sched, proc,
                    {cfg.coreOf(0, 1), cfg.coreOf(0, 2)},
                    {cfg.coreOf(1, 0), cfg.coreOf(1, 1)}, params);

    // An observer on core 0 measures each combo; "local" = socket 0.
    struct Result
    {
        ServedBy served = ServedBy::none;
    };
    std::array<Result, numCombos> results;
    SimThread *observer = m.kernel.spawnThread(
        m.sched, "observer", cfg.coreOf(0, 0), proc,
        [&](ThreadApi api) -> Task {
            for (Combo c : allCombos()) {
                crew.activate(c, block);
                co_await api.spin(30'000);
                co_await api.flush(block);
                co_await api.spin(3'000);
                co_await api.load(block);
                results[comboIndex(c)].served = api.lastServed();
            }
            crew.stopAll();
        });
    m.sched.runUntilFinished(observer, 10'000'000);
    ASSERT_TRUE(observer->finished);
    for (Combo c : allCombos()) {
        EXPECT_EQ(results[comboIndex(c)].served,
                  comboExpectedService(c))
            << comboName(c);
    }
}

TEST(PlacerTest, ActivateBeyondCrewPanics)
{
    SystemConfig cfg = baseConfig().system;
    Machine m(cfg);
    Process &proc = m.kernel.createProcess("trojan");
    ChannelParams params;
    // Only one local loader: LShared (needs 2) must panic.
    PlacerCrew crew(m.kernel, m.sched, proc, {cfg.coreOf(0, 1)}, {},
                    params);
    EXPECT_THROW(crew.activate(Combo::localShared, 0x1000),
                 std::logic_error);
    EXPECT_THROW(crew.activate(Combo::remoteExcl, 0x1000),
                 std::logic_error);
    crew.stopAll();
    m.sched.run(1'000'000);
}

/**
 * Backend for the crew schedule pin: records every operation and
 * answers a load in 40, 60 or 80 cycles by line, so maintain loops
 * fall on and off the loaders' poll grid.
 */
class CrewOpLog : public MemoryBackend
{
  public:
    struct Op
    {
        char kind;
        ThreadId tid;
        CoreId core;
        VAddr addr;
        Tick when;
    };

    AccessResult
    load(ThreadId tid, CoreId core, VAddr addr, Tick when) override
    {
        ops.push_back({'L', tid, core, addr, when});
        return {40 + addr / lineBytes % 3 * 20, ServedBy::dram};
    }
    AccessResult
    store(ThreadId tid, CoreId core, VAddr addr, Tick when) override
    {
        ops.push_back({'S', tid, core, addr, when});
        return {20, ServedBy::none};
    }
    AccessResult
    flush(ThreadId tid, CoreId core, VAddr addr, Tick when) override
    {
        ops.push_back({'F', tid, core, addr, when});
        return {50, ServedBy::none};
    }

    std::vector<Op> ops;
};

/** FNV-1a over 64-bit words. */
std::uint64_t
fnvMix(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * A seeded PlacerCrew schedule on a recording backend. Crew A's four
 * loaders are threads 0-3, the controller is thread 4 and crew B's
 * three loaders are 5-7, so the controller's mode writes, made at
 * poll-multiple gaps, tie with loader polls on both sides of the
 * thread-id order. Part-way through, the controller spawns a guest
 * onto an idle loader's core. It then sleeps with both crews idle
 * while the test cuts two runs short by `until` and writes a mode
 * from outside the run, and it ends without stopping the crews, so a
 * last cut finds only idle loaders. The digest covers every backend
 * op, sched.now() after each run, and every thread's final clock and
 * op count.
 */
std::uint64_t
crewScheduleDigest(std::uint64_t seed)
{
    Machine m(baseConfig().system);  // its kernel; crews run on sched
    Process &proc = m.kernel.createProcess("trojan");
    CrewOpLog log;
    Scheduler sched(&log, 8);
    ChannelParams params;
    params.helperGap = 20;
    const Tick poll = params.pollInterval;
    PlacerCrew a(m.kernel, sched, proc, {1, 2}, {3, 4}, params);
    std::unique_ptr<PlacerCrew> b;
    // Crew B has one remote loader: only these combos fit it.
    const std::array<Combo, 3> b_combos = {
        Combo::localShared, Combo::localExcl, Combo::remoteExcl};
    auto write = [&](Rng &rng) {
        switch (rng.below(4)) {
          case 0:
            a.activate(allCombos()[rng.below(4)],
                       0x3000 + rng.below(3) * lineBytes);
            break;
          case 1:
            b->activate(b_combos[rng.below(3)],
                        0x4000 + rng.below(3) * lineBytes);
            break;
          case 2: a.idle(); break;
          default: b->idle(); break;
        }
    };
    auto guest = [](ThreadApi api) -> Task {
        for (VAddr i = 0; i < 12; ++i) {
            co_await api.load(0x2000 + i * lineBytes);
            co_await api.spin(400);
        }
    };
    SimThread *ctl = m.kernel.spawnThread(
        sched, "ctl", 0, proc, [&](ThreadApi api) -> Task {
            Rng rng(seed);
            for (int i = 0; i < 80; ++i) {
                write(rng);
                if (i == 40) {
                    a.idle();
                    co_await api.spin(2 * poll);
                    api.scheduler()->spawn("guest", 2, proc.pid(),
                                           guest);
                }
                co_await api.spin(poll * rng.below(4));
            }
            co_await api.spinUntil(40'000);
            a.idle();
            b->idle();
            co_await api.sleep(60'000);
            for (int i = 0; i < 20; ++i) {
                write(rng);
                co_await api.spin(poll * rng.below(4));
            }
            a.idle();
            b->idle();
        });
    b = std::make_unique<PlacerCrew>(m.kernel, sched, proc,
                                     std::vector<CoreId>{5, 6},
                                     std::vector<CoreId>{7}, params);

    std::uint64_t h = 0xcbf29ce484222325ULL;
    sched.run(50'013);
    h = fnvMix(h, sched.now());
    b->activate(Combo::localExcl, 0x4000);
    sched.runUntilFinished(ctl, 90'007);
    h = fnvMix(h, sched.now());
    sched.runUntilFinished(ctl);
    h = fnvMix(h, sched.now());
    sched.run(sched.now() + 5'003);
    h = fnvMix(h, sched.now());
    a.stopAll();
    b->stopAll();
    sched.run();
    h = fnvMix(h, sched.now());
    EXPECT_TRUE(sched.allFinished());

    for (const auto &op : log.ops) {
        h = fnvMix(h, static_cast<std::uint64_t>(op.kind));
        h = fnvMix(h, static_cast<std::uint64_t>(op.tid));
        h = fnvMix(h, static_cast<std::uint64_t>(op.core));
        h = fnvMix(h, op.addr);
        h = fnvMix(h, op.when);
    }
    for (const auto &t : sched.threads()) {
        h = fnvMix(h, t->now);
        h = fnvMix(h, t->opsExecuted);
    }
    return h;
}

// Produced by the polling loaders (every idle poll a scheduler
// step); a loader that waits idle in any other way must leave these
// unchanged.
TEST(CrewSchedulePin, ModeWritesCutsAndSpawnsAreUnchanged)
{
    EXPECT_EQ(crewScheduleDigest(7), 0x187d6936d0340264ULL);
    EXPECT_EQ(crewScheduleDigest(8), 0xb91bdcec9b7c26beULL);
}

TEST(CorePlanTest, StandardPlanIsConsistent)
{
    const SystemConfig sys = baseConfig().system;
    const CorePlan plan = CorePlan::standard(sys);
    EXPECT_EQ(sys.socketOf(plan.spy), 0);
    EXPECT_EQ(sys.socketOf(plan.controller), 0);
    for (CoreId c : plan.localLoaders)
        EXPECT_EQ(sys.socketOf(c), 0);
    for (CoreId c : plan.remoteLoaders)
        EXPECT_EQ(sys.socketOf(c), 1);
    // Attack threads all sit on distinct cores.
    std::vector<CoreId> attack = {plan.spy, plan.controller};
    attack.insert(attack.end(), plan.localLoaders.begin(),
                  plan.localLoaders.end());
    attack.insert(attack.end(), plan.remoteLoaders.begin(),
                  plan.remoteLoaders.end());
    std::sort(attack.begin(), attack.end());
    EXPECT_EQ(std::adjacent_find(attack.begin(), attack.end()),
              attack.end());
    EXPECT_GE(plan.noise.size(), 6u);
}

TEST(CorePlanTest, RejectsTooSmallMachines)
{
    SystemConfig sys = baseConfig().system;
    sys.sockets = 1;
    EXPECT_THROW(CorePlan::standard(sys), std::runtime_error);
    sys = baseConfig().system;
    sys.coresPerSocket = 3;
    EXPECT_THROW(CorePlan::standard(sys), std::runtime_error);
}

// The quantum hand-over gives a freed core to the lowest waiting
// thread id, so of three busy threads on one core the third never
// runs. No single-pair preset, in any scenario or noise level of its
// sweep, puts three threads on a core, so no paper golden depends on
// that rule. Each rig is built as runTransmission builds it, up
// to the spawned trojan and spy, and never run.
TEST(CorePlanTest, NoSinglePairPresetPutsThreeThreadsOnACore)
{
    for (const Preset &preset : allPresets()) {
        ConfigResolver res;
        res.applyPreset(preset.name);
        const ExperimentSpec &base = res.spec();
        if (base.fleet.enabled())
            continue;
        const GridAxes axes = sweepAxes(base);
        for (const Scenario sc : axes.scenarios) {
            for (const int noise : axes.noiseLevels) {
                ExperimentSpec spec = base;
                spec.channel.scenario = sc;
                spec.channel.noiseThreads = noise;
                SCOPED_TRACE(msgCat(preset.name, ", ",
                                    scenarioInfo(sc).notation,
                                    ", ", noise, " noise thread(s)"));
                const ChannelConfig cfg = spec.toChannelConfig();
                const std::unique_ptr<LeakageVector> vec =
                    makeLeakageVector(cfg.vector);
                const ScenarioInfo &scenario = scenarioInfo(sc);
                SinglePairRig rig(cfg, &sharedCal(),
                                  vec->localLoaders(scenario),
                                  vec->remoteLoaders(scenario),
                                  scenario.csc);
                const BitString payload = spec.makePayload();
                TrojanResult trojan;
                SpyResult spy;
                VectorRun run{rig.host.cfg, scenario, rig.host.cal,
                              payload,      rig.pair, trojan,
                              spy};
                vec->prepare(run);
                rig.pair.spawn(
                    [&](ThreadApi api) { return vec->trojanTask(api, run); },
                    [&](ThreadApi api) { return vec->spyTask(api, run); });
                std::map<CoreId, int> live;
                for (const auto &t : rig.host.machine.sched.threads()) {
                    if (!t->finished)
                        ++live[t->core()];
                }
                for (const auto &[core, n] : live)
                    EXPECT_LE(n, 2) << "core " << core;
            }
        }
    }
}

/** End-to-end transmission for every Table I scenario. */
class EndToEnd : public ::testing::TestWithParam<int>
{};

TEST_P(EndToEnd, TransmitsAccurately)
{
    ChannelConfig cfg = baseConfig();
    cfg.scenario = allScenarios()[static_cast<std::size_t>(
                                      GetParam())].id;
    Rng rng(99 + GetParam());
    const BitString payload = randomBits(rng, 80);
    const ChannelReport report =
        runTransmission(cfg, payload, &sharedCal());
    EXPECT_TRUE(report.completed);
    EXPECT_TRUE(report.spy.sawTransmission);
    EXPECT_GE(report.metrics.accuracy, 0.95)
        << scenarioInfo(cfg.scenario).notation;
    EXPECT_GT(report.metrics.rawKbps, 50.0);
    EXPECT_GT(report.trojan.syncProbes, 0);
    EXPECT_GT(report.trojan.txEnd, report.trojan.txStart);
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, EndToEnd,
                         ::testing::Range(0, numScenarios));

TEST(EndToEndExtras, TraceCollectionWorks)
{
    ChannelConfig cfg = baseConfig();
    cfg.collectTrace = true;
    Rng rng(5);
    const BitString payload = randomBits(rng, 20);
    const ChannelReport report =
        runTransmission(cfg, payload, &sharedCal());
    EXPECT_FALSE(report.spy.trace.empty());
    // The trace decodes to the same bits the spy reported.
    const ScenarioInfo &sc = scenarioInfo(cfg.scenario);
    LatencyBand tc = sharedCal().band(sc.csc);
    LatencyBand tb = sharedCal().band(sc.csb);
    LatencyBand dram = sharedCal().dramBand;
    std::vector<LatencyBand *> used = {&tc, &tb, &dram};
    claimGaps(used, cfg.params.gapClaim);
    EXPECT_EQ(translateTrace(report.spy.trace, tc, tb,
                             cfg.params.thold()),
              report.received);
}

TEST(EndToEndExtras, KsmSharingWorksEndToEnd)
{
    ChannelConfig cfg = baseConfig();
    cfg.sharing = SharingMode::ksm;
    Rng rng(6);
    const BitString payload = randomBits(rng, 40);
    const ChannelReport report =
        runTransmission(cfg, payload, &sharedCal());
    EXPECT_TRUE(report.completed);
    EXPECT_TRUE(report.shared.viaKsm);
    EXPECT_GE(report.metrics.accuracy, 0.95);
}

TEST(EndToEndExtras, EmptyPayloadCompletes)
{
    ChannelConfig cfg = baseConfig();
    const ChannelReport report =
        runTransmission(cfg, BitString{}, &sharedCal());
    EXPECT_TRUE(report.completed);
    EXPECT_TRUE(report.received.empty());
}

TEST(EndToEndExtras, HigherRatesLoseAccuracy)
{
    ChannelConfig cfg = baseConfig();
    cfg.scenario = Scenario::rexcC_lexB;
    Rng rng(7);
    const BitString payload = randomBits(rng, 150);
    cfg.params =
        ChannelParams::forTargetKbps(150, cfg.system.timing);
    const auto slow = runTransmission(cfg, payload);
    cfg.params =
        ChannelParams::forTargetKbps(1000, cfg.system.timing);
    const auto fast = runTransmission(cfg, payload);
    EXPECT_GE(slow.metrics.accuracy, 0.97);
    EXPECT_LT(fast.metrics.accuracy, slow.metrics.accuracy);
    EXPECT_GT(fast.metrics.rawKbps, slow.metrics.rawKbps * 3);
}

TEST(EndToEndExtras, HeavyNoiseDegradesAccuracy)
{
    ChannelConfig cfg = baseConfig();
    cfg.scenario = Scenario::rexcC_rshB;
    cfg.params =
        ChannelParams::forTargetKbps(500, cfg.system.timing);
    Rng rng(8);
    const BitString payload = randomBits(rng, 150);
    const CalibrationResult cal =
        calibrate(cfg.system, 300, cfg.params);
    const auto quiet = runTransmission(cfg, payload, &cal);
    cfg.noiseThreads = 8;
    const auto noisy = runTransmission(cfg, payload, &cal);
    EXPECT_TRUE(noisy.completed);
    EXPECT_GE(quiet.metrics.accuracy, 0.97);
    EXPECT_LT(noisy.metrics.accuracy, quiet.metrics.accuracy);
    EXPECT_GE(noisy.metrics.accuracy, 0.5);
}

TEST(TrojanSync, DetectsAPollingSpy)
{
    // §VII-A: the trojan's flush+reload probing detects the spy's
    // polling (a reload faster than DRAM implies another cache
    // supplied the block).
    ChannelConfig cfg = baseConfig();
    Machine m(cfg.system);
    Process &tp = m.kernel.createProcess("trojan");
    Process &sp = m.kernel.createProcess("spy");
    const auto [tva, sva] =
        m.kernel.mapSharedRegion(tp, sp, pageBytes);
    TrojanResult result;
    SimThread *trojan = m.kernel.spawnThread(
        m.sched, "trojan", cfg.system.coreOf(0, 3), tp,
        [&, tva = tva](ThreadApi api) {
            return trojanSyncPhase(api, tva, sharedCal(),
                                   cfg.params, result);
        });
    m.kernel.spawnThread(
        m.sched, "spy", cfg.system.coreOf(0, 0), sp,
        [&, sva = sva](ThreadApi api) -> Task {
            for (;;) {
                co_await api.flush(sva);
                co_await api.spin(cfg.params.ts);
                co_await api.load(sva);
            }
        });
    m.sched.runUntilFinished(trojan, 500'000'000);
    EXPECT_TRUE(trojan->finished);
    EXPECT_GT(result.syncProbes, 0);
    EXPECT_GT(result.syncEnd, result.syncStart);
}

TEST(TrojanSync, DoesNotFireWithoutASpy)
{
    // With nobody polling, every probe reload is a DRAM fetch and
    // synchronization never completes.
    ChannelConfig cfg = baseConfig();
    Machine m(cfg.system);
    Process &tp = m.kernel.createProcess("trojan");
    const VAddr tva = tp.mmap(pageBytes);
    TrojanResult result;
    SimThread *trojan = m.kernel.spawnThread(
        m.sched, "trojan", cfg.system.coreOf(0, 3), tp,
        [&](ThreadApi api) {
            return trojanSyncPhase(api, tva, sharedCal(),
                                   cfg.params, result);
        });
    m.sched.runUntilFinished(trojan, 30'000'000);
    EXPECT_FALSE(trojan->finished);
}

TEST(Metrics, ComputeMetricsMath)
{
    TimingParams t;
    t.clockGhz = 2.67;
    const BitString sent = bitsFromString("10110011");
    const BitString recv = bitsFromString("10110010");
    const ChannelMetrics m = computeMetrics(sent, recv, 1'000,
                                            2'671'000, t);
    EXPECT_EQ(m.bitsSent, 8u);
    EXPECT_EQ(m.bitsReceived, 8u);
    EXPECT_NEAR(m.accuracy, 7.0 / 8.0, 1e-12);
    EXPECT_EQ(m.durationCycles, 2'670'000u);
    EXPECT_NEAR(m.rawKbps, 8.0, 0.01);
}

TEST(Protocol, ForTargetKbpsHitsNominalRate)
{
    TimingParams t;
    for (double kbps : {100.0, 300.0, 500.0, 800.0}) {
        const ChannelParams p = ChannelParams::forTargetKbps(kbps, t);
        EXPECT_NEAR(p.nominalKbps(t), kbps, kbps * 0.12)
            << "target " << kbps;
        EXPECT_GE(p.ts, 40u);
    }
    // Absurd targets saturate at the minimum sampling interval.
    const ChannelParams p =
        ChannelParams::forTargetKbps(50'000.0, t);
    EXPECT_EQ(p.ts, 40u);
}

TEST(Sharing, ExplicitModeSharesOnePage)
{
    Machine m(baseConfig().system);
    Process &t = m.kernel.createProcess("trojan");
    Process &s = m.kernel.createProcess("spy");
    const SharedBlock blk = establishSharedBlock(
        m, t, s, SharingMode::explicitShared, 42);
    EXPECT_FALSE(blk.viaKsm);
    EXPECT_EQ(pageAlign(t.translate(blk.trojanVa)),
              pageAlign(s.translate(blk.spyVa)));
}

TEST(Sharing, KsmModeMergesAndKeepsSpare)
{
    Machine m(baseConfig().system);
    Process &t = m.kernel.createProcess("trojan");
    Process &s = m.kernel.createProcess("spy");
    const SharedBlock blk =
        establishSharedBlock(m, t, s, SharingMode::ksm, 42);
    EXPECT_TRUE(blk.viaKsm);
    EXPECT_EQ(blk.attempts, 1);
    EXPECT_EQ(t.translate(blk.trojanVa), s.translate(blk.spyVa));
    // A spare deduplicated page is reserved (paper §VII-A).
    EXPECT_NE(blk.spareTrojanVa, 0u);
    EXPECT_EQ(t.translate(blk.spareTrojanVa),
              s.translate(blk.spareSpyVa));
    EXPECT_NE(t.translate(blk.spareTrojanVa),
              t.translate(blk.trojanVa));
}

TEST(Sharing, ExternalSharerForcesRetry)
{
    // An external process that merged a page with the same pattern
    // (the paper's "accidental third sharer") must be detected, and
    // a fresh pattern used.
    Machine m(baseConfig().system);
    Process &ext1 = m.kernel.createProcess("external1");
    Process &ext2 = m.kernel.createProcess("external2");
    // Pre-plant the first-attempt pattern in two external processes.
    const std::uint64_t seed = 42;
    VAddr ext1_va = 0;
    for (Process *p : {&ext1, &ext2}) {
        const VAddr va = p->mmap(pageBytes);
        if (p == &ext1)
            ext1_va = va;
        Rng rng(seed);
        std::vector<std::uint8_t> pattern(pageBytes);
        for (auto &byte : pattern)
            byte = static_cast<std::uint8_t>(rng.next());
        p->writeData(va, pattern);
        p->madviseMergeable(va, pageBytes);
    }
    m.kernel.runKsmScan();
    Process &t = m.kernel.createProcess("trojan");
    Process &s = m.kernel.createProcess("spy");
    const SharedBlock blk =
        establishSharedBlock(m, t, s, SharingMode::ksm, seed);
    EXPECT_GT(blk.attempts, 1);
    EXPECT_EQ(t.translate(blk.trojanVa), s.translate(blk.spyVa));
    // The block is not the externally shared page.
    EXPECT_NE(pageAlign(t.translate(blk.trojanVa)),
              pageAlign(ext1.translate(ext1_va)));
}

/**
 * Property test: encode a random bit string into the synthetic
 * sample-run representation the trojan produces and verify the
 * translator decodes it exactly, with and without injected
 * out-of-band samples.
 */
class TranslatorRoundTrip : public ::testing::TestWithParam<int>
{};

TEST_P(TranslatorRoundTrip, DecodesSyntheticRuns)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 17);
    ChannelParams params;
    const BitString bits =
        randomBits(rng, 40 + rng.below(120));

    std::vector<SampleClass> stream;
    auto push = [&](SampleClass cls, int n) {
        for (int i = 0; i < n; ++i) {
            stream.push_back(cls);
            // Occasional out-of-band sample inside a run (a lost
            // placement); the translator must skip it.
            if (rng.chance(0.08))
                stream.push_back(SampleClass::outOfBand);
        }
    };
    push(SampleClass::boundary, params.cb);
    for (auto bit : bits) {
        // The spy observes the hold duration with +-1 sample slack.
        const int base = bit ? params.c1 : params.c0;
        const int jitter = static_cast<int>(rng.below(2));
        push(SampleClass::communication,
             std::max(1, base - jitter));
        push(SampleClass::boundary, params.cb);
    }

    IncrementalTranslator tr(params.thold());
    BitString decoded;
    for (SampleClass cls : stream) {
        if (auto b = tr.feed(cls))
            decoded.push_back(static_cast<std::uint8_t>(*b));
    }
    if (auto b = tr.finish())
        decoded.push_back(static_cast<std::uint8_t>(*b));
    EXPECT_EQ(decoded, bits);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TranslatorRoundTrip,
                         ::testing::Range(0, 10));

} // namespace
} // namespace csim
