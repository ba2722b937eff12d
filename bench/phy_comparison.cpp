/**
 * @file
 * Parity-vs-FEC comparison — the Figure 10 question asked of the new
 * src/phy stack. All three coding schemes transmit the same payloads
 * at the same fixed raw wire rate (550 Kbps, past the legacy
 * scheme's reliable envelope on Table I row 4) across noise levels,
 * and the bench reports effective rate (ChannelMetrics: payload
 * bits over the run, scaled by edit-distance accuracy), goodput
 * (payload bits delivered without residual error over the same
 * clock) and CC-Hunter's verdict per run.
 *
 * The north-star acceptance check is printed at the end: the
 * hamming-soft profile must achieve effectiveKbps >= the legacy
 * parity+NACK scheme at every noise level. The legacy ARQ loop
 * collapses at this rate — NACK windows misread under load, so it
 * pays retransmission storms and still delivers garbage — while the
 * framed FEC chain keeps its fixed schedule and repairs what it can.
 *
 * Each (noise, trial, scheme) point is one independent seeded
 * simulation fanned out over `--jobs` workers; results are
 * bit-identical for any worker count. `--quick` trims the grid for
 * the CI golden (tests/golden/phy_quick). Writes BENCH_phy.json and
 * the re-runnable BENCH_phy_manifest.json.
 */

#include <cstring>
#include <iostream>

#include "cohersim/attack.hh"
#include "cohersim/harness.hh"
#include "detect/cchunter.hh"

namespace
{

using namespace csim;

struct PointResult
{
    ChannelReport rep;
    bool detected = false;
};

PointResult
runPoint(const ExperimentSpec &base, const CalibrationResult &cal,
         PhyProfile profile, int noise, unsigned payload_seed)
{
    ExperimentSpec point = base;
    point.channel.noiseThreads = noise;
    point.channel.phy.profile = profile;
    CoherenceChannelDetector det;
    point.channel.taps.push_back(&det);
    Rng rng(payload_seed);
    const BitString payload =
        randomBits(rng, static_cast<std::size_t>(base.payload.bits));

    PointResult r{
        runTransmission(point.toChannelConfig(), payload, &cal)};
    r.detected = det.anySuspicious();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace csim;

    RunnerOptions opts = RunnerOptions::fromArgs(argc, argv);
    opts.label = "phy";
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
    }

    // The phy-quick preset carries the scenario (Table I row 4); the
    // bench pins the contested operating point and payload size.
    ConfigResolver resolver;
    resolver.applyOverride("system.seed", "2018", "default");
    resolver.applyPreset("phy-quick");
    resolver.applyOverride("channel.rate_kbps", "550", "bench");
    resolver.applyOverride("channel.noise_threads", "0", "bench");
    resolver.applyOverride("payload.bits", quick ? "512" : "2048",
                           "bench");
    resolver.applyOverride("channel.timeout_margin", "25", "bench");
    resolver.dumpFile("BENCH_phy_manifest.json");
    const ExperimentSpec &base = resolver.spec();
    base.validate();

    const std::vector<int> noise_levels =
        quick ? std::vector<int>{0, 4}
              : std::vector<int>{0, 2, 4, 8};
    const std::vector<unsigned> trials =
        quick ? std::vector<unsigned>{8}
              : std::vector<unsigned>{8, 9, 10};
    const PhyProfile schemes[] = {PhyProfile::legacyParity,
                                  PhyProfile::hammingHard,
                                  PhyProfile::hammingSoft};

    const ChannelConfig base_cfg = base.toChannelConfig();
    const TimingParams &timing = base_cfg.system.timing;
    const CalibrationResult cal =
        calibrate(base_cfg.system, 400, base_cfg.params);

    std::cout << "== PHY stack: parity+NACK vs Hamming FEC at a "
                 "fixed 550 Kbps wire rate ==\n\n";

    std::vector<std::function<PointResult()>> jobs;
    for (const int noise : noise_levels) {
        for (const unsigned trial : trials) {
            for (const PhyProfile profile : schemes) {
                jobs.push_back([&base, &cal, profile, noise, trial] {
                    return runPoint(base, cal, profile, noise,
                                    trial);
                });
            }
        }
    }
    double wall = 0.0;
    const std::vector<PointResult> results =
        runJobs(std::move(jobs), opts, &wall);

    Json artifact = benchArtifact("phy", opts.resolvedJobs(), wall);
    Json &rows = artifact["rows"];
    // Mean effective/payload rate per (scheme, noise), for the
    // acceptance check and the stdout table.
    const std::size_t n_schemes = std::size(schemes);
    std::vector<double> eff(noise_levels.size() * n_schemes, 0.0);
    std::vector<double> good(noise_levels.size() * n_schemes, 0.0);
    std::size_t idx = 0;
    for (std::size_t ni = 0; ni < noise_levels.size(); ++ni) {
        for (const unsigned trial : trials) {
            for (std::size_t si = 0; si < n_schemes; ++si) {
                const ChannelReport &rep = results[idx].rep;
                const PhyResult &r = rep.phy;
                const ChannelMetrics &m = rep.metrics;
                const bool detected = results[idx++].detected;
                const double payload_kbps = timing.kbps(
                    m.bitsSent - r.residualErrors, m.durationCycles);
                eff[ni * n_schemes + si] +=
                    m.effectiveKbps /
                    static_cast<double>(trials.size());
                good[ni * n_schemes + si] +=
                    payload_kbps /
                    static_cast<double>(trials.size());
                Json row = Json::object();
                row["scheme"] = phyProfileName(schemes[si]);
                row["noise_threads"] = static_cast<std::int64_t>(
                    noise_levels[ni]);
                row["payload_seed"] =
                    static_cast<std::int64_t>(trial);
                row["effective_kbps"] = m.effectiveKbps;
                row["payload_kbps"] = payload_kbps;
                row["residual_errors"] =
                    static_cast<std::int64_t>(r.residualErrors);
                row["raw_bits_sent"] =
                    static_cast<std::int64_t>(r.rawBitsSent);
                row["retransmissions"] =
                    static_cast<std::int64_t>(rep.metrics.retransmits);
                row["fec_corrected"] =
                    static_cast<std::int64_t>(r.stages.fecCorrected);
                row["detected"] = detected;
                row["completed"] = rep.completed;
                rows.push(std::move(row));
            }
        }
    }

    TablePrinter table;
    table.header({"noise", "legacy eff/good", "hard eff/good",
                  "soft eff/good", "soft wins eff"});
    bool soft_wins_everywhere = true;
    Json summary = Json::array();
    for (std::size_t ni = 0; ni < noise_levels.size(); ++ni) {
        const double legacy_eff = eff[ni * n_schemes + 0];
        const double hard_eff = eff[ni * n_schemes + 1];
        const double soft_eff = eff[ni * n_schemes + 2];
        const bool wins = soft_eff >= legacy_eff;
        soft_wins_everywhere = soft_wins_everywhere && wins;
        auto cell = [&](std::size_t si) {
            return TablePrinter::num(eff[ni * n_schemes + si]) +
                   " / " +
                   TablePrinter::num(good[ni * n_schemes + si]);
        };
        table.row({std::to_string(noise_levels[ni]), cell(0),
                   cell(1), cell(2), wins ? "yes" : "NO"});
        Json s = Json::object();
        s["noise_threads"] =
            static_cast<std::int64_t>(noise_levels[ni]);
        s["legacy_effective_kbps"] = legacy_eff;
        s["hard_effective_kbps"] = hard_eff;
        s["soft_effective_kbps"] = soft_eff;
        s["legacy_payload_kbps"] = good[ni * n_schemes + 0];
        s["hard_payload_kbps"] = good[ni * n_schemes + 1];
        s["soft_payload_kbps"] = good[ni * n_schemes + 2];
        s["soft_wins_effective"] = wins;
        summary.push(std::move(s));
    }
    artifact["summary"] = std::move(summary);
    artifact["soft_beats_legacy_everywhere"] = soft_wins_everywhere;
    table.print(std::cout);
    writeJsonFile("BENCH_phy.json", artifact);
    std::cout << "\n[" << results.size() << " transmissions, "
              << TablePrinter::num(wall, 2) << "s wall on "
              << opts.resolvedJobs()
              << " worker(s); BENCH_phy.json + "
                 "BENCH_phy_manifest.json written]\n";
    std::cout << "\nAcceptance: hamming-soft effectiveKbps >= "
                 "legacy parity+NACK at every noise level: "
              << (soft_wins_everywhere ? "HOLDS" : "VIOLATED")
              << "\n";
    std::cout
        << "\nReading: at 550 Kbps raw the legacy ARQ loop is past "
           "its envelope — ack windows misread, so it retransmits "
           "into the noise and its goodput collapses to near zero — "
           "while the framed FEC profiles keep their fixed "
           "transmit schedule, repair scattered wire flips "
           "(interleaving spreads bursts across codewords) and "
           "drop only the frames whose preamble or header the "
           "noise destroyed. CC-Hunter still flags every scheme: "
           "whitening randomizes the payload pattern but not the "
           "flush+reload carrier.\n";
    return quick || soft_wins_everywhere ? 0 : 1;
}
