/**
 * @file
 * Tests for the multi-tenant fleet: contention-aware timeouts,
 * per-pair core planning, determinism (including across runner
 * worker counts), pair attribution and counter namespacing, the
 * machine-aggregate CC-Hunter verdict, seeded digests of defended
 * fleet and single-pair runs, and the BMP/surrogate-pair JSON string
 * escapes the fleet artifacts rely on.
 */

#include <bit>

#include <gtest/gtest.h>

#include "cohersim/attack.hh"
#include "config/presets.hh"
#include "config/resolver.hh"
#include "runner/runner.hh"

namespace csim
{
namespace
{

/** The fleet-quick preset shrunk to test size (fast, completing). */
ExperimentSpec
quickFleet(int pairs)
{
    ConfigResolver res;
    res.applyPreset("fleet-quick");
    ExperimentSpec spec = res.spec();
    spec.fleet.pairs = pairs;
    spec.fleet.noiseAgents = 0;
    spec.payload.bits = 32;
    return spec;
}

/** Run @p spec, which must resolve to a fleet. */
FleetReport
fleetReport(const ExperimentSpec &spec)
{
    const ExperimentResult res = runExperiment(spec);
    EXPECT_EQ(res.kind, ExperimentKind::fleet);
    return res.fleet;
}

TEST(ContentionTimeout, FactorIsExactlyOneWithoutContention)
{
    ChannelConfig cfg;
    cfg.noiseThreads = 0;
    cfg.coResidentPairs = 1;
    // Bit-for-bit 1.0, so single-pair timeouts (and with them every
    // existing golden) are untouched by the contention scaling.
    EXPECT_EQ(cfg.contentionFactor(), 1.0);
}

TEST(ContentionTimeout, ScalesWithNoiseAndCoResidents)
{
    ChannelConfig cfg;
    cfg.noiseThreads = 2;
    cfg.coResidentPairs = 3;
    EXPECT_DOUBLE_EQ(cfg.contentionFactor(), 1.0 + 0.5 + 1.5);

    ChannelConfig quiet = cfg;
    quiet.noiseThreads = 0;
    quiet.coResidentPairs = 1;
    const std::size_t bits = 64;
    const double margin = 20.0;
    // The pre-fix behaviour: a loaded machine got the same budget as
    // an idle one, so heavily contended transmissions were cut off
    // mid-payload. The scaled timeout must strictly dominate.
    EXPECT_GT(cfg.deriveTimeout(bits, margin),
              quiet.deriveTimeout(bits, margin));
    // And grow monotonically with tenancy.
    ChannelConfig denser = cfg;
    denser.coResidentPairs = 8;
    EXPECT_GT(denser.deriveTimeout(bits, margin),
              cfg.deriveTimeout(bits, margin));
}

TEST(FleetCorePlanTest, PairZeroMatchesStandardPlan)
{
    SystemConfig sys;
    sys.coresPerSocket = 16;
    const CorePlan std_plan = CorePlan::standard(sys);
    const CorePlan plan = fleetCorePlan(sys, 0);
    EXPECT_EQ(plan.spy, std_plan.spy);
    EXPECT_EQ(plan.controller, std_plan.controller);
    EXPECT_EQ(plan.localLoaders, std_plan.localLoaders);
    EXPECT_EQ(plan.remoteLoaders, std_plan.remoteLoaders);
    EXPECT_EQ(plan.noise, std_plan.noise);
}

TEST(FleetCorePlanTest, BlocksAreDisjointUntilTheyWrap)
{
    SystemConfig sys;
    sys.coresPerSocket = 16;  // four 4-core blocks on socket 0
    std::vector<CoreId> attack;
    for (int k = 0; k < 4; ++k) {
        const CorePlan plan = fleetCorePlan(sys, k);
        attack.push_back(plan.spy);
        attack.push_back(plan.controller);
        for (CoreId c : plan.localLoaders)
            attack.push_back(c);
    }
    std::sort(attack.begin(), attack.end());
    EXPECT_TRUE(std::adjacent_find(attack.begin(), attack.end()) ==
                attack.end())
        << "pairs within the block budget must not share cores";
    // Pair 4 wraps back onto pair 0's block (oversubscription).
    EXPECT_EQ(fleetCorePlan(sys, 4).spy, fleetCorePlan(sys, 0).spy);
}

TEST(FleetRun, IsDeterministic)
{
    const ExperimentSpec spec = quickFleet(2);
    const FleetReport a = fleetReport(spec);
    const FleetReport b = fleetReport(spec);
    ASSERT_EQ(a.pairs.size(), b.pairs.size());
    EXPECT_EQ(a.durationCycles, b.durationCycles);
    for (std::size_t i = 0; i < a.pairs.size(); ++i) {
        EXPECT_EQ(a.pairs[i].sent, b.pairs[i].sent);
        EXPECT_EQ(a.pairs[i].received, b.pairs[i].received);
        EXPECT_EQ(a.pairs[i].metrics.accuracy,
                  b.pairs[i].metrics.accuracy);
        EXPECT_EQ(a.pairs[i].metrics.durationCycles,
                  b.pairs[i].metrics.durationCycles);
    }
    EXPECT_EQ(a.aggregate.suspicious, b.aggregate.suspicious);
    EXPECT_EQ(a.aggregate.flushes, b.aggregate.flushes);
}

TEST(FleetRun, BitIdenticalAcrossRunnerWorkerCounts)
{
    // The fleet_scaling bench shape: one independent simulation per
    // tenant count, fanned out over the worker pool. Results must
    // not depend on the host's parallelism.
    auto sweep = [] {
        std::vector<std::function<FleetReport()>> jobs;
        for (const int pairs : {2, 3, 4})
            jobs.push_back(
                [pairs] { return fleetReport(quickFleet(pairs)); });
        return jobs;
    };
    std::vector<std::vector<FleetReport>> results;
    for (const int jobs : {1, 4, 8}) {
        RunnerOptions opts;
        opts.jobs = jobs;
        opts.progress = false;
        results.push_back(runJobs(sweep(), opts));
    }
    for (std::size_t j = 1; j < results.size(); ++j) {
        ASSERT_EQ(results[0].size(), results[j].size());
        for (std::size_t i = 0; i < results[0].size(); ++i) {
            const FleetReport &a = results[0][i];
            const FleetReport &b = results[j][i];
            EXPECT_EQ(a.durationCycles, b.durationCycles);
            ASSERT_EQ(a.pairs.size(), b.pairs.size());
            for (std::size_t p = 0; p < a.pairs.size(); ++p) {
                EXPECT_EQ(a.pairs[p].received, b.pairs[p].received);
                EXPECT_EQ(a.pairs[p].metrics.effectiveKbps,
                          b.pairs[p].metrics.effectiveKbps);
            }
        }
    }
}

TEST(FleetRun, AttributesEachPairItsOwnTraffic)
{
    const ExperimentSpec spec = quickFleet(4);
    const FleetReport rep = fleetReport(spec);
    ASSERT_EQ(rep.pairs.size(), 4u);
    EXPECT_TRUE(rep.completed);
    std::vector<PAddr> lines;
    for (std::size_t i = 0; i < rep.pairs.size(); ++i) {
        const PairReport &pr = rep.pairs[i];
        // Report rows stay in pair order however the staggered
        // starts interleave the completions.
        EXPECT_EQ(pr.pairId, static_cast<std::uint32_t>(i + 1));
        EXPECT_EQ(pr.metrics.pairId, pr.pairId);
        EXPECT_TRUE(pr.completed);
        // Each spy must decode *its own* trojan's payload: a
        // cross-pair mixup would score ~50% against the wrong
        // pattern. The per-pair pattern seeds also give each pair a
        // distinct physical line (no KSM cross-pair merging).
        EXPECT_EQ(pr.sent.size(), spec.payloadBits());
        EXPECT_GT(pr.metrics.accuracy, 0.9);
        lines.push_back(pr.sharedLine);
    }
    std::sort(lines.begin(), lines.end());
    EXPECT_TRUE(std::adjacent_find(lines.begin(), lines.end()) ==
                lines.end())
        << "co-resident pairs must transmit on distinct lines";
    // Distinct payloads (per-pair seed streams): if two pairs shared
    // a payload, the attribution assertion above would be vacuous.
    EXPECT_NE(rep.pairs[0].sent, rep.pairs[1].sent);
}

TEST(FleetRun, NamespacesCountersPerPair)
{
    // The regression the namespacing fixes: two rigs on one machine
    // used to write the same counter names, so the second rig's
    // totals silently overwrote (or summed into) the first's.
    const FleetReport rep = fleetReport(quickFleet(2));
    ASSERT_EQ(rep.pairs.size(), 2u);
    for (const PairReport &pr : rep.pairs) {
        const std::string prefix =
            "pair" + std::to_string(pr.pairId) + ".";
        EXPECT_EQ(rep.counters.value(prefix + "ch.bits_sent"),
                  pr.metrics.bitsSent);
        EXPECT_EQ(rep.counters.value(prefix + "ch.bits_received"),
                  pr.metrics.bitsReceived);
        EXPECT_GT(pr.metrics.bitsSent, 0u);
    }
    // The un-prefixed single-pair names must NOT appear: they would
    // mean some pair's traffic still lands in the shared namespace.
    EXPECT_EQ(rep.counters.value("ch.bits_sent"), 0u);
}

TEST(FleetRun, CallerDetectorWatchesNextToTheFleets)
{
    const FleetReport plain = fleetReport(quickFleet(2));
    ExperimentSpec spec = quickFleet(2);
    CoherenceChannelDetector mine;
    spec.channel.taps.push_back(&mine);
    const FleetReport rep = fleetReport(spec);
    EXPECT_GT(mine.eventsObserved(), 0u);
    // Watching changes nothing the fleet reports, and with the
    // fleet's thresholds the caller's detector reaches its verdicts.
    EXPECT_EQ(rep.durationCycles, plain.durationCycles);
    ASSERT_EQ(rep.pairs.size(), plain.pairs.size());
    for (std::size_t i = 0; i < rep.pairs.size(); ++i) {
        EXPECT_EQ(rep.pairs[i].received, plain.pairs[i].received);
        EXPECT_EQ(mine.verdict(rep.pairs[i].sharedLine).suspicious,
                  rep.pairs[i].detect.suspicious);
    }
    EXPECT_EQ(rep.pairsFlagged, plain.pairsFlagged);
}

TEST(FleetRun, NoiseAgentsMakeOnePairAFleet)
{
    // fleet.noise_agents acts on one pair too: the run is a fleet
    // with its noise agents, not a single pair that ignores them.
    ExperimentSpec spec = quickFleet(1);
    spec.fleet.noiseAgents = 1;
    const FleetReport rep = fleetReport(spec);
    ASSERT_EQ(rep.pairs.size(), 1u);
    EXPECT_EQ(rep.pairs[0].sent.size(), spec.payloadBits());
    spec.fleet.noiseAgents = 0;
    EXPECT_EQ(runExperiment(spec).kind, ExperimentKind::single);
}

TEST(FleetRun, ScenarioMixCyclesOverPairs)
{
    ConfigResolver res;
    res.applyPreset("fleet-quick");
    ExperimentSpec spec = res.spec();
    spec.fleet.pairs = 3;
    spec.fleet.noiseAgents = 0;
    spec.fleet.scenarioMix = "1,2";
    spec.payload.bits = 16;
    const std::vector<Scenario> mix = spec.fleet.scenarios();
    ASSERT_EQ(mix.size(), 2u);
    const FleetReport rep = fleetReport(spec);
    ASSERT_EQ(rep.pairs.size(), 3u);
    EXPECT_EQ(rep.pairs[0].scenario, mix[0]);
    EXPECT_EQ(rep.pairs[1].scenario, mix[1]);
    EXPECT_EQ(rep.pairs[2].scenario, mix[0]);
}

TEST(FleetRun, LayersMachineGlobalMitigationPresets)
{
    // PR 6 refused machine-global software defences on fleet runs;
    // a multi-tenant defence study needs them. A mitigation-* preset
    // layered over the fleet preset deploys the defence once, for
    // the whole host.
    const auto fleet = [](const char *mitigation) {
        ConfigResolver res;
        res.applyPreset("fleet-quick");
        if (mitigation)
            res.applyPreset(mitigation);
        ExperimentSpec spec = res.spec();
        spec.fleet.pairs = 2;
        spec.fleet.noiseAgents = 0;
        spec.payload.bits = 32;
        return spec;
    };
    const FleetReport open = fleetReport(fleet(nullptr));
    const FleetReport noisy =
        fleetReport(fleet("mitigation-targeted-noise"));
    const FleetReport guarded =
        fleetReport(fleet("mitigation-ksm-guard"));
    ASSERT_EQ(open.pairs.size(), 2u);
    ASSERT_EQ(noisy.pairs.size(), 2u);
    ASSERT_EQ(guarded.pairs.size(), 2u);

    // The monitor round-robins over *every* pair's shared line; it
    // must not improve anyone's channel.
    double open_acc = 0.0, noisy_acc = 0.0;
    for (std::size_t i = 0; i < 2; ++i) {
        open_acc += open.pairs[i].metrics.accuracy;
        noisy_acc += noisy.pairs[i].metrics.accuracy;
    }
    EXPECT_LE(noisy_acc, open_acc + 1e-9);

    // Defended fleets stay deterministic like every other path.
    const FleetReport again =
        fleetReport(fleet("mitigation-targeted-noise"));
    ASSERT_EQ(again.pairs.size(), noisy.pairs.size());
    for (std::size_t i = 0; i < noisy.pairs.size(); ++i) {
        EXPECT_EQ(again.pairs[i].received, noisy.pairs[i].received);
        EXPECT_EQ(again.pairs[i].metrics.accuracy,
                  noisy.pairs[i].metrics.accuracy);
    }
}

/** FNV-1a over the eight bytes of @p v. */
std::uint64_t
fnvMix(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
fnvMix(std::uint64_t h, double v)
{
    return fnvMix(h, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t
fnvMix(std::uint64_t h, const std::string &s)
{
    h = fnvMix(h, static_cast<std::uint64_t>(s.size()));
    for (const char c : s)
        h = fnvMix(h, static_cast<std::uint64_t>(c));
    return h;
}

/** Digest of one pair's outcome: bits, every metric, completion. */
std::uint64_t
pairDigest(std::uint64_t h, const BitString &sent,
           const BitString &received, const ChannelMetrics &m,
           bool completed)
{
    h = fnvMix(h, static_cast<std::uint64_t>(sent.size()));
    for (const std::uint8_t b : sent)
        h = fnvMix(h, static_cast<std::uint64_t>(b));
    h = fnvMix(h, static_cast<std::uint64_t>(received.size()));
    for (const std::uint8_t b : received)
        h = fnvMix(h, static_cast<std::uint64_t>(b));
    h = fnvMix(h, static_cast<std::uint64_t>(m.pairId));
    h = fnvMix(h, m.bitsSent);
    h = fnvMix(h, m.bitsReceived);
    h = fnvMix(h, m.accuracy);
    h = fnvMix(h, m.durationCycles);
    h = fnvMix(h, m.rawKbps);
    h = fnvMix(h, m.effectiveKbps);
    h = fnvMix(h, m.payloadKbps);
    h = fnvMix(h, m.nacks);
    h = fnvMix(h, m.retransmits);
    return fnvMix(h, static_cast<std::uint64_t>(completed));
}

/** Digest of every counter, names and values in registry order. */
std::uint64_t
countersDigest(std::uint64_t h, const CounterRegistry &reg)
{
    for (const auto &[name, value] : reg.entries())
        h = fnvMix(fnvMix(h, name), value);
    return h;
}

/** A defended spec: @p mitigation over @p base (null: defaults). */
ExperimentSpec
defendedSpec(const char *base, const char *mitigation)
{
    ConfigResolver res;
    if (base)
        res.applyPreset(base);
    res.applyPreset(mitigation);
    return res.spec();
}

/**
 * Digest of a 2-pair fleet with one noise agent under @p mitigation:
 * calibrated by the fleet itself, so the llc-notify timing change,
 * the calibration fallback, the observers, the noise agent and the
 * machine-global defence all shape it.
 */
std::uint64_t
defendedFleetDigest(const char *mitigation)
{
    ExperimentSpec spec = defendedSpec("fleet-quick", mitigation);
    spec.fleet.pairs = 2;
    spec.fleet.noiseAgents = 1;
    spec.payload.bits = 32;
    const FleetReport rep = fleetReport(spec);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const PairReport &pr : rep.pairs) {
        h = pairDigest(h, pr.sent, pr.received, pr.metrics,
                       pr.completed);
    }
    h = fnvMix(h, static_cast<std::uint64_t>(rep.completed));
    h = fnvMix(h, rep.durationCycles);
    return countersDigest(h, rep.counters);
}

// Pinned before the single-pair rig and the fleet shared one machine
// lifecycle: no golden output covers a defended fleet, so these
// digests hold the setup order (observers, noise, pairs, defences,
// threads) and the monitor's round-robin budget in place.

TEST(MachineLifecyclePin, DefendedFleetsAreUnchanged)
{
    EXPECT_EQ(defendedFleetDigest("mitigation-targeted-noise"),
              0x9e79c6cf856092a0ULL);
    EXPECT_EQ(defendedFleetDigest("mitigation-ksm-guard"),
              0xd1e4fe46aad385a4ULL);
    EXPECT_EQ(defendedFleetDigest("mitigation-llc-notify"),
              0x408680304b2b3487ULL);
}

TEST(MachineLifecyclePin, NoisyTargetedNoisePairIsUnchanged)
{
    ExperimentSpec spec =
        defendedSpec(nullptr, "mitigation-targeted-noise");
    spec.channel.noiseThreads = 2;
    spec.payload.bits = 32;
    spec.rateKbps = 500;
    spec.timeoutMargin = 20.0;
    const ChannelReport rep =
        runTransmission(spec.toChannelConfig(), spec.makePayload());
    const std::uint64_t h =
        pairDigest(0xcbf29ce484222325ULL, rep.sent, rep.received,
                   rep.metrics, rep.completed);
    EXPECT_EQ(countersDigest(h, rep.counters), 0xf9820a3839a51021ULL);
}

TEST(ConfigFleet, RejectsMalformedScenarioMix)
{
    ConfigResolver res;
    res.applyPreset("fleet-quick");
    ExperimentSpec spec = res.spec();
    spec.fleet.scenarioMix = "1,bogus";
    try {
        spec.validate();
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("fleet.scenario_mix"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("bogus"),
                  std::string::npos);
    }
}

// --- the machine-aggregate CC-Hunter verdict ------------------------

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

TEST(AggregateDetector, SingleTrainIsSuspiciousInAggregateToo)
{
    CoherenceChannelDetector det;
    const PAddr line = 0x1000;
    Tick now = 1'000;
    for (int i = 0; i < 80; ++i) {
        det.observe(flushEv(0, line, now));
        det.observe(loadEv(3, line, now + 200));
        now += 3'000;
    }
    EXPECT_TRUE(det.verdict(line).suspicious);
    const LineVerdict agg = det.aggregateVerdict();
    EXPECT_TRUE(agg.suspicious);
    EXPECT_EQ(agg.line, 0u);
    EXPECT_EQ(agg.flushes, det.verdict(line).flushes);
}

TEST(AggregateDetector, InterleavedTrainsHideTheAggregate)
{
    // Two pairs, each perfectly periodic on its own line but with
    // incommensurate periods: per-line CC-Hunter flags both, while
    // the address-blind union of the trains has irregular
    // inter-flush intervals — the multi-tenant blind spot the fleet
    // experiments measure.
    CoherenceChannelDetector det;
    const PAddr line_a = 0x1000, line_b = 0x9000;
    Tick now_a = 1'000, now_b = 1'700;
    for (int i = 0; i < 100; ++i) {
        det.observe(flushEv(0, line_a, now_a));
        det.observe(loadEv(3, line_a, now_a + 200));
        now_a += 3'000;
        det.observe(flushEv(1, line_b, now_b));
        det.observe(loadEv(4, line_b, now_b + 200));
        now_b += 4'700;
    }
    EXPECT_TRUE(det.verdict(line_a).suspicious);
    EXPECT_TRUE(det.verdict(line_b).suspicious);
    const LineVerdict agg = det.aggregateVerdict();
    EXPECT_FALSE(agg.suspicious);
    EXPECT_GT(agg.intervalCv, det.params().maxIntervalCv);
}

TEST(AggregateDetector, AggregateDoesNotFeedPerLineAlarms)
{
    // A periodic flush train spread round-robin over many lines:
    // every per-line train is far below minFlushes, so no line may
    // be flagged — but the aggregate train is long and periodic.
    // The aggregate runs out-of-band: anySuspicious() must stay
    // false (it drives the mitigation experiments' per-line logic).
    CoherenceChannelDetector det;
    Tick now = 1'000;
    for (int i = 0; i < 200; ++i) {
        const PAddr line =
            0x1000 + static_cast<PAddr>(i % 40) * 0x40;
        det.observe(flushEv(0, line, now));
        det.observe(loadEv(3, line, now + 200));
        now += 3'000;
    }
    EXPECT_FALSE(det.anySuspicious());
    EXPECT_TRUE(det.suspiciousLines().empty());
    const LineVerdict agg = det.aggregateVerdict();
    EXPECT_TRUE(agg.suspicious);
    EXPECT_EQ(agg.flushes, 200u);
}

// --- JSON \uXXXX escapes beyond Basic Latin -------------------------

TEST(JsonUnicode, DecodesArbitraryBmpEscapes)
{
    const Json doc =
        parseJson("{\"s\": \"A \\u00e9 \\u20ac \\u0950\"}");
    const Json *s = doc.find("s");
    ASSERT_NE(s, nullptr);
    // 2-byte (é), 3-byte (€) and another 3-byte (ॐ) sequence.
    EXPECT_EQ(s->asString(), "A \xc3\xa9 \xe2\x82\xac \xe0\xa5\x90");
}

TEST(JsonUnicode, CombinesSurrogatePairs)
{
    const Json doc = parseJson("{\"s\": \"\\ud83d\\ude00\"}");
    const Json *s = doc.find("s");
    ASSERT_NE(s, nullptr);
    // U+1F600, a 4-byte UTF-8 sequence.
    EXPECT_EQ(s->asString(), "\xf0\x9f\x98\x80");
    EXPECT_EQ(s->asString().size(), 4u);
}

TEST(JsonUnicode, RoundTripsSupplementaryPlaneText)
{
    const Json doc = parseJson("{\"s\": \"\\ud83d\\ude00x\"}");
    const Json again = parseJson(doc.dump());
    const Json *s = again.find("s");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->asString(), "\xf0\x9f\x98\x80x");
}

TEST(JsonUnicode, RejectsMalformedSurrogates)
{
    // Lone low surrogate.
    EXPECT_THROW(parseJson("{\"s\": \"\\ude00\"}"), JsonParseError);
    // High surrogate at end of string.
    EXPECT_THROW(parseJson("{\"s\": \"\\ud83d\"}"), JsonParseError);
    // High surrogate followed by a plain character.
    EXPECT_THROW(parseJson("{\"s\": \"\\ud83dx\"}"), JsonParseError);
    // High surrogate followed by a non-surrogate escape.
    EXPECT_THROW(parseJson("{\"s\": \"\\ud83d\\u0041\"}"),
                 JsonParseError);
    // Truncated hex digits.
    EXPECT_THROW(parseJson("{\"s\": \"\\u12\"}"), JsonParseError);
}

TEST(JsonUnicode, BasicLatinEscapesStillWork)
{
    const Json doc = parseJson("{\"s\": \"\\u0041\\u007a\"}");
    const Json *s = doc.find("s");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->asString(), "Az");
}

} // namespace
} // namespace csim
