/**
 * @file
 * Tests for the PHY channel stack (src/phy): codecs exhaustively,
 * the synchronization/soft-decision stages under seeded noise, and
 * the end-to-end FEC session against the live simulator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>

#include "channel/ecc.hh"
#include "channel/experiment.hh"
#include "common/random.hh"
#include "config/resolver.hh"
#include "detect/cchunter.hh"
#include "phy/adaptive.hh"
#include "phy/frame.hh"
#include "phy/hamming.hh"
#include "phy/interleave.hh"
#include "phy/preamble.hh"
#include "phy/soft.hh"
#include "phy/whiten.hh"
#include "runner/runner.hh"

namespace csim
{
namespace
{

ChannelConfig
baseConfig()
{
    ChannelConfig cfg;
    cfg.system.seed = 424242;
    cfg.scenario = Scenario::rshC_lshB;
    cfg.phy.profile = PhyProfile::hammingSoft;
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

// ---------------------------------------------------------------- FEC

TEST(Hamming84, ExhaustiveCorrectAndDetect)
{
    for (std::uint8_t nibble = 0; nibble < 16; ++nibble) {
        const BitString code = hammingEncode84(nibble);
        ASSERT_EQ(code.size(), hammingCodeBits);
        FecOutcome outcome;
        const auto clean = hammingDecode84(code, &outcome);
        ASSERT_TRUE(clean.has_value());
        EXPECT_EQ(*clean, nibble);
        EXPECT_EQ(outcome, FecOutcome::clean);

        // Every single-bit error corrects.
        for (std::size_t f = 0; f < hammingCodeBits; ++f) {
            BitString bad = code;
            bad[f] ^= 1;
            const auto got = hammingDecode84(bad, &outcome);
            ASSERT_TRUE(got.has_value())
                << "nibble " << int(nibble) << " flip " << f;
            EXPECT_EQ(*got, nibble);
            EXPECT_EQ(outcome, FecOutcome::corrected);
        }
        // Every double-bit error is detected, never miscorrected.
        for (std::size_t f = 0; f < hammingCodeBits; ++f) {
            for (std::size_t g = f + 1; g < hammingCodeBits; ++g) {
                BitString bad = code;
                bad[f] ^= 1;
                bad[g] ^= 1;
                EXPECT_FALSE(
                    hammingDecode84(bad, &outcome).has_value())
                    << "nibble " << int(nibble) << " flips " << f
                    << "," << g;
                EXPECT_EQ(outcome, FecOutcome::uncorrectable);
            }
        }
    }
}

TEST(HammingSoft, MatchesHardOnCleanWords)
{
    std::vector<SoftBit> soft(hammingCodeBits);
    for (std::uint8_t nibble = 0; nibble < 16; ++nibble) {
        const BitString code = hammingEncode84(nibble);
        for (std::size_t i = 0; i < hammingCodeBits; ++i)
            soft[i] = SoftBit{code[i], 1.0};
        FecOutcome outcome;
        EXPECT_EQ(hammingDecodeSoft(soft.data(), &outcome), nibble);
        EXPECT_EQ(outcome, FecOutcome::clean);
    }
}

TEST(HammingSoft, ConfidenceRecoversDoubleErrors)
{
    // Two flipped bits defeat hard SECDED decoding, but when both
    // flips carry near-zero confidence the ML decoder leans on the
    // six trustworthy bits and recovers the nibble — the soft
    // profile's whole reason to exist.
    for (std::uint8_t nibble = 0; nibble < 16; ++nibble) {
        const BitString code = hammingEncode84(nibble);
        std::vector<SoftBit> soft(hammingCodeBits);
        for (std::size_t i = 0; i < hammingCodeBits; ++i)
            soft[i] = SoftBit{code[i], 0.9};
        soft[1].bit ^= 1;
        soft[1].confidence = 0.05;
        soft[6].bit ^= 1;
        soft[6].confidence = 0.05;
        FecOutcome outcome;
        EXPECT_EQ(hammingDecodeSoft(soft.data(), &outcome), nibble);
        EXPECT_EQ(outcome, FecOutcome::corrected);

        BitString hard(hammingCodeBits);
        for (std::size_t i = 0; i < hammingCodeBits; ++i)
            hard[i] = soft[i].bit;
        EXPECT_FALSE(hammingDecode84(hard).has_value());
    }
}

// ------------------------------------------------- whitener/interleaver

TEST(Whitener, RoundTripsAndDecorrelates)
{
    Rng rng(17);
    BitString bits = randomBits(rng, 257);
    const BitString orig = bits;
    whitenBits(bits, 0x155);
    EXPECT_NE(bits, orig);  // astronomically unlikely to collide
    whitenBits(bits, 0x155);
    EXPECT_EQ(bits, orig);

    // Distinct seeds produce distinct masks.
    BitString a = orig, b = orig;
    whitenBits(a, 0x101);
    whitenBits(b, 0x102);
    EXPECT_NE(a, b);
}

TEST(Whitener, BreaksUpConstantRuns)
{
    // The wire format's motivation: a long all-zero payload must not
    // serialize as a long constant run.
    BitString zeros(128, 0);
    whitenBits(zeros, 0x1ff);
    const std::size_t ones = static_cast<std::size_t>(
        std::count(zeros.begin(), zeros.end(), 1));
    EXPECT_GT(ones, 40u);
    EXPECT_LT(ones, 90u);
}

TEST(Interleaver, PermutationRoundTrip)
{
    for (const int depth : {1, 4, 8}) {
        for (const std::size_t n : {8u, 64u, 256u}) {
            const auto perm = interleavePermutation(n, depth);
            std::set<std::size_t> seen(perm.begin(), perm.end());
            EXPECT_EQ(seen.size(), n);

            Rng rng(1000 + depth);
            const BitString orig = randomBits(rng, n);
            const BitString inter = interleaveBits(orig, depth);
            EXPECT_EQ(deinterleave(inter, depth), orig);
            if (depth == 1) {
                EXPECT_EQ(inter, orig);
            }
        }
    }
}

TEST(Interleaver, BurstLandsInDistinctCodewords)
{
    // A burst of `depth` consecutive wire-bit errors must hit every
    // codeword at most once, i.e. stay within SECDED capacity.
    constexpr int depth = 8;
    constexpr std::size_t nibbles = 16;
    const std::size_t n = nibbles * hammingCodeBits;
    const auto perm = interleavePermutation(n, depth);
    for (std::size_t start = 0; start + depth <= n; ++start) {
        std::set<std::size_t> words;
        for (std::size_t k = start;
             k < start + static_cast<std::size_t>(depth); ++k) {
            words.insert(perm[k] / hammingCodeBits);
        }
        EXPECT_EQ(words.size(), static_cast<std::size_t>(depth))
            << "burst at " << start;
    }
}

// ------------------------------------------------------------ preamble

TEST(Preamble, DetectsWithinMismatchBudget)
{
    const BitString pattern = preamblePattern(16);
    ASSERT_EQ(pattern.size(), 16u);
    PreambleDetector det(pattern, preambleMismatchBudget(16));

    // Clean pattern locks on its last bit.
    bool locked = false;
    for (const std::uint8_t b : pattern)
        locked = det.push(b);
    EXPECT_TRUE(locked);
    EXPECT_EQ(det.lastMismatches(), 0);

    // Budget-many flips still lock; one more does not.
    const int budget = preambleMismatchBudget(16);
    ASSERT_GE(budget, 1);
    for (const int flips : {budget, budget + 1}) {
        PreambleDetector d(pattern, budget);
        BitString noisy = pattern;
        for (int f = 0; f < flips; ++f)
            noisy[static_cast<std::size_t>(3 + 5 * f) % 16] ^= 1;
        bool got = false;
        for (const std::uint8_t b : noisy)
            got = d.push(b);
        EXPECT_EQ(got, flips <= budget) << flips << " flips";
    }
}

TEST(Preamble, RareFalseLocksOnRandomBits)
{
    // Random bit streams must almost never correlate: the budget is
    // len/8, i.e. 2 mismatches in 16 bits, P ~ (1+16+120)/65536.
    const BitString pattern = preamblePattern(16);
    Rng rng(99);
    constexpr int n = 20'000;
    PreambleDetector det(pattern, preambleMismatchBudget(16));
    int locks = 0;
    for (int i = 0; i < n; ++i) {
        if (det.push(static_cast<std::uint8_t>(rng.below(2))))
            ++locks;
    }
    EXPECT_LT(locks, n / 250);
}

// --------------------------------------------------------- frame codec

TEST(FrameCodec, RoundTripsThroughPerfectWire)
{
    PhyConfig cfg;
    cfg.profile = PhyProfile::hammingSoft;
    Rng rng(7);
    const BitString chunk = randomBits(rng, 128);
    const BitString wire = phyEncodeFrame(9, chunk, cfg);
    ASSERT_EQ(wire.size(), static_cast<std::size_t>(cfg.preambleLen) +
                               phyHeaderWireBits + chunk.size() * 2);

    // Preamble, header, body — exactly as the spy consumes them.
    const BitString header(
        wire.begin() + cfg.preambleLen,
        wire.begin() + cfg.preambleLen +
            static_cast<std::ptrdiff_t>(phyHeaderWireBits));
    const auto hdr = phyDecodeHeader(header, cfg);
    ASSERT_TRUE(hdr.has_value());
    EXPECT_EQ(hdr->seq, 9);
    EXPECT_EQ(hdr->nibbles, 32);

    std::vector<SoftBit> body;
    for (std::size_t i =
             static_cast<std::size_t>(cfg.preambleLen) +
             phyHeaderWireBits;
         i < wire.size(); ++i) {
        body.push_back(SoftBit{wire[i], 1.0});
    }
    const PhyBodyResult res = phyDecodeBody(body, *hdr, cfg);
    EXPECT_EQ(res.bits, chunk);
    EXPECT_EQ(res.blocks, 32);
    EXPECT_EQ(res.corrected, 0);
    EXPECT_EQ(res.uncorrectable, 0);
}

TEST(FrameCodec, CorrectsScatteredAndBurstErrors)
{
    for (const bool soft : {false, true}) {
        PhyConfig cfg;
        cfg.profile =
            soft ? PhyProfile::hammingSoft : PhyProfile::hammingHard;
        Rng rng(soft ? 21 : 20);
        const BitString chunk = randomBits(rng, 128);
        BitString wire = phyEncodeFrame(3, chunk, cfg);

        const std::size_t body_off =
            static_cast<std::size_t>(cfg.preambleLen) +
            phyHeaderWireBits;
        // An interleaver-depth burst plus two scattered flips in
        // other codewords: all within single-error capacity. With
        // depth 8 and 32 codewords, wire position k lands in
        // codeword k mod 32 — the burst at 64 covers codewords 0-7,
        // the scattered flips hit 9 and 8.
        for (std::size_t k = 0;
             k < static_cast<std::size_t>(cfg.interleaverDepth); ++k)
            wire[body_off + 64 + k] ^= 1;
        wire[body_off + 9] ^= 1;
        wire[body_off + 200] ^= 1;

        const auto hdr = phyDecodeHeader(
            BitString(wire.begin() +
                          static_cast<std::ptrdiff_t>(
                              cfg.preambleLen),
                      wire.begin() +
                          static_cast<std::ptrdiff_t>(body_off)),
            cfg);
        ASSERT_TRUE(hdr.has_value());
        std::vector<SoftBit> body;
        for (std::size_t i = body_off; i < wire.size(); ++i)
            body.push_back(SoftBit{wire[i], 1.0});
        const PhyBodyResult res = phyDecodeBody(body, *hdr, cfg);
        EXPECT_EQ(res.bits, chunk) << (soft ? "soft" : "hard");
        EXPECT_EQ(res.corrected, cfg.interleaverDepth + 2);
        EXPECT_EQ(res.uncorrectable, 0);
    }
}

// ------------------------------------------------------------ adaptive

TEST(Adaptive, DeterministicAndSeparationDriven)
{
    const CalibrationResult &cal = sharedCal();
    const ScenarioInfo &sc = scenarioInfo(Scenario::rshC_lshB);

    const AdaptiveDecision quiet =
        phyChooseOperatingPoint(cal, sc, 0);
    const AdaptiveDecision again =
        phyChooseOperatingPoint(cal, sc, 0);
    EXPECT_EQ(quiet.profile, again.profile);
    EXPECT_EQ(quiet.rateKbps, again.rateKbps);
    EXPECT_GT(quiet.rateKbps, 0.0);
    EXPECT_GT(quiet.separation, 0.0);

    // Expected co-tenant noise must never pick a faster point, and
    // must abandon the hard profile once noise is expected.
    const AdaptiveDecision noisy =
        phyChooseOperatingPoint(cal, sc, 4);
    EXPECT_LE(noisy.rateKbps, quiet.rateKbps);
    EXPECT_EQ(noisy.profile, PhyProfile::hammingSoft);
}

// --------------------------------------------------------- end to end

TEST(PhyEndToEnd, SoftProfileDeliversCleanPayload)
{
    ChannelConfig cfg = baseConfig();
    cfg.params =
        ChannelParams::forTargetKbps(500, cfg.system.timing);
    Rng rng(5);
    const BitString payload = randomBits(rng, 256);
    cfg.timeout = cfg.deriveTimeout(payload.size() * 3);

    const ChannelReport rep =
        runTransmission(cfg, payload, &sharedCal());
    EXPECT_TRUE(rep.completed);
    EXPECT_EQ(rep.phy.residualErrors, 0u);
    EXPECT_EQ(rep.received, payload);
    EXPECT_EQ(rep.phy.frames, 2);
    EXPECT_EQ(rep.phy.stages.framesAccepted, 2u);
    EXPECT_GT(rep.phy.rawBitsSent, payload.size() * 2);
    EXPECT_GT(rep.metrics.effectiveKbps, 0.0);
    // Clean delivery: the effective rate is the whole payload over
    // the run.
    EXPECT_DOUBLE_EQ(rep.metrics.effectiveKbps,
                     cfg.system.timing.kbps(payload.size(),
                                            rep.metrics.durationCycles));
}

// phy_comparison's contested point (phy-quick at 550 Kbps, no noise,
// payload seed 8): hamming-hard leaves residual errors, and the
// effective rate counts only what arrived, below the payload bits
// over the run.
TEST(PhyEndToEnd, ResidualErrorsLowerTheEffectiveRate)
{
    ConfigResolver res;
    res.applyOverride("system.seed", "2018", "test");
    res.applyPreset("phy-quick");
    res.applyOverride("channel.rate_kbps", "550", "test");
    res.applyOverride("channel.noise_threads", "0", "test");
    res.applyOverride("payload.bits", "512", "test");
    res.applyOverride("channel.timeout_margin", "25", "test");
    res.applyOverride("phy.profile", "hamming-hard", "test");
    const ChannelConfig cfg = res.spec().toChannelConfig();
    const CalibrationResult cal =
        calibrate(cfg.system, 400, cfg.params);
    Rng rng(8);
    const ChannelReport rep =
        runTransmission(cfg, randomBits(rng, 512), &cal);
    ASSERT_TRUE(rep.completed);
    EXPECT_EQ(rep.phy.residualErrors, 88u);
    const ChannelMetrics &m = rep.metrics;
    EXPECT_LT(m.effectiveKbps,
              cfg.system.timing.kbps(m.bitsSent, m.durationCycles));
    EXPECT_GT(m.effectiveKbps, 0.0);
}

TEST(PhyEndToEnd, AdaptiveRateKeepsTheProtocolCounts)
{
    // The controller's rate replaces only the intervals: a session
    // with other counts runs them at the picked rate.
    ChannelConfig cfg = baseConfig();
    cfg.phy.profile = PhyProfile::adaptive;
    Rng rng(12);
    const BitString payload = randomBits(rng, 64);
    const ChannelReport plain =
        runTransmission(cfg, payload, &sharedCal());
    cfg.params.c1 = 9;
    cfg.params.c0 = 3;
    const ChannelReport counted =
        runTransmission(cfg, payload, &sharedCal());
    EXPECT_EQ(counted.phy.rateKbps, plain.phy.rateKbps);
    EXPECT_NE(counted.metrics.durationCycles,
              plain.metrics.durationCycles);
}

// ch.phy.profile publishes the enumerator, and committed digests hash
// it: the values that predate raw and adaptive keep their numbers.
static_assert(static_cast<int>(PhyProfile::legacyParity) == 0);
static_assert(static_cast<int>(PhyProfile::hammingHard) == 1);
static_assert(static_cast<int>(PhyProfile::hammingSoft) == 2);

TEST(PhyRouting, EachProfileRunsOneChain)
{
    struct Route
    {
        PhyProfile profile;
        ExperimentKind kind;
    };
    const Route routes[] = {
        {PhyProfile::legacyParity, ExperimentKind::phy},
        {PhyProfile::hammingHard, ExperimentKind::phy},
        {PhyProfile::hammingSoft, ExperimentKind::phy},
        {PhyProfile::raw, ExperimentKind::single},
        {PhyProfile::adaptive, ExperimentKind::phy},
    };
    // One row per enumerator, in order: a new profile needs a row.
    for (std::size_t i = 0; i < std::size(routes); ++i)
        ASSERT_EQ(static_cast<std::size_t>(routes[i].profile), i);
    ASSERT_STREQ(
        phyProfileName(static_cast<PhyProfile>(std::size(routes))), "?");

    Rng rng(12);
    const BitString payload = randomBits(rng, 64);
    for (const Route &route : routes) {
        SCOPED_TRACE(phyProfileName(route.profile));
        ExperimentSpec spec;
        spec.channel = baseConfig();
        spec.channel.phy.profile = route.profile;
        spec.validate();
        const ExperimentResult res =
            runExperiment(spec, &sharedCal(), &payload);
        EXPECT_EQ(res.kind, route.kind);
        const ChannelReport &rep = res.channel;
        EXPECT_TRUE(rep.completed);
        EXPECT_EQ(rep.received, payload);

        switch (route.profile) {
          case PhyProfile::raw:
            EXPECT_EQ(rep.phy, PhyResult{});
            break;
          case PhyProfile::legacyParity:
            // One 64-byte parity packet, no preamble hunt.
            EXPECT_EQ(rep.phy.profileUsed, PhyProfile::legacyParity);
            EXPECT_EQ(rep.phy.frames, 1);
            EXPECT_GE(rep.phy.rawBitsSent, packetTotalBits);
            EXPECT_EQ(rep.phy.stages.preambleLocks, 0u);
            break;
          case PhyProfile::hammingHard:
          case PhyProfile::hammingSoft:
            EXPECT_EQ(rep.phy.profileUsed, route.profile);
            EXPECT_GT(rep.phy.stages.preambleLocks, 0u);
            EXPECT_EQ(rep.phy.rateKbps, 0.0);
            // The wire rate must expose the FEC expansion: raw >
            // effective; clean delivery makes goodput the effective
            // rate.
            EXPECT_GT(rep.metrics.rawKbps, rep.metrics.effectiveKbps);
            EXPECT_DOUBLE_EQ(rep.metrics.payloadKbps,
                             rep.metrics.effectiveKbps);
            EXPECT_GT(rep.counters.value("ch.phy.frames_sent"), 0);
            break;
          case PhyProfile::adaptive:
            EXPECT_TRUE(rep.phy.profileUsed == PhyProfile::hammingHard ||
                        rep.phy.profileUsed == PhyProfile::hammingSoft);
            EXPECT_GT(rep.phy.stages.preambleLocks, 0u);
            EXPECT_GT(rep.phy.rateKbps, 0.0);
            EXPECT_NE(rep.phy.bandSeparation, 0.0);
            break;
        }
        if (route.kind == ExperimentKind::phy) {
            EXPECT_DOUBLE_EQ(rep.metrics.accuracy, 1.0);
            EXPECT_EQ(rep.phy.residualErrors, 0u);
            EXPECT_EQ(rep.counters.value("ch.phy.profile"),
                      static_cast<std::uint64_t>(rep.phy.profileUsed));
        }
    }

    // The PHY session exists on the coherence vector only; a config
    // that skipped validate() fails instead of ignoring the vector.
    ChannelConfig dirty = baseConfig();
    dirty.vector = VectorKind::dirty;
    dirty.phy.profile = PhyProfile::legacyParity;
    EXPECT_THROW(runTransmission(dirty, payload), std::runtime_error);
}

TEST(PhyEndToEnd, BitIdenticalAcrossWorkerCounts)
{
    // The acceptance property, phy edition: a profile sweep yields
    // bit-identical results at any worker count.
    ChannelConfig base = baseConfig();
    Rng rng(9);
    const BitString payload = randomBits(rng, 128);

    struct Cell
    {
        std::string delivered;
        std::uint64_t residual = 0;
        Tick duration = 0;
        std::uint64_t corrected = 0;
    };
    auto sweep = [&](int workers) {
        std::vector<std::function<Cell()>> jobs;
        for (const PhyProfile profile :
             {PhyProfile::hammingHard, PhyProfile::hammingSoft}) {
            for (const double rate : {400.0, 550.0}) {
                jobs.push_back([&, profile, rate] {
                    ChannelConfig cfg = base;
                    cfg.phy.profile = profile;
                    cfg.params = ChannelParams::forTargetKbps(
                        rate, cfg.system.timing);
                    cfg.timeout =
                        cfg.deriveTimeout(payload.size() * 3);
                    const ChannelReport rep = runTransmission(
                        cfg, payload, &sharedCal());
                    return Cell{bitsToString(rep.received),
                                rep.phy.residualErrors,
                                rep.metrics.durationCycles,
                                rep.phy.stages.fecCorrected};
                });
            }
        }
        RunnerOptions opts;
        opts.jobs = workers;
        return runJobs(std::move(jobs), opts);
    };

    const auto seq = sweep(1);
    const auto par4 = sweep(4);
    const auto par8 = sweep(8);
    ASSERT_EQ(seq.size(), par4.size());
    ASSERT_EQ(seq.size(), par8.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_EQ(seq[i].delivered, par4[i].delivered) << i;
        EXPECT_EQ(seq[i].delivered, par8[i].delivered) << i;
        EXPECT_EQ(seq[i].residual, par8[i].residual) << i;
        EXPECT_EQ(seq[i].duration, par8[i].duration) << i;
        EXPECT_EQ(seq[i].corrected, par8[i].corrected) << i;
    }
}

TEST(PhyEndToEnd, CcHunterStillFlagsFecTraffic)
{
    // FEC re-shapes the wire stream (whitening kills long constant
    // runs) but the carrier is still a periodic flush+reload train —
    // CC-Hunter must keep flagging it.
    ChannelConfig cfg = baseConfig();
    cfg.params =
        ChannelParams::forTargetKbps(500, cfg.system.timing);
    Rng rng(11);
    const BitString payload = randomBits(rng, 192);
    cfg.timeout = cfg.deriveTimeout(payload.size() * 3);

    CoherenceChannelDetector detector;
    cfg.taps.push_back(&detector);
    const ChannelReport rep =
        runTransmission(cfg, payload, &sharedCal());
    EXPECT_TRUE(rep.completed);
    EXPECT_TRUE(detector.anySuspicious());
    const LineVerdict v =
        detector.verdict(lineAlign(rep.shared.paddr));
    EXPECT_TRUE(v.suspicious);
    // Flagged while the frames were still on the wire.
    EXPECT_GT(v.flaggedAt, rep.trojan.txStart);
    EXPECT_LT(v.flaggedAt, rep.trojan.txEnd);
}

} // namespace
} // namespace csim
