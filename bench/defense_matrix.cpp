/**
 * @file
 * Defense matrix: attack variants against every deployed defence.
 *
 * Rows are Table I attack scenarios; columns are the undefended
 * baseline, the paper's three §VIII-E mitigations and the two
 * randomized-cache defenses the pluggable hierarchy adds
 * (CEASER-style dynamic index remapping, MIRAGE-style random
 * placement). Every cell is one full covert transmission over
 * KSM-merged pages with a CC-Hunter detector watching the machine,
 * reporting accuracy, effectiveKbps and the detector verdict — so
 * one artifact answers both questions the tentpole poses: does the
 * defense degrade the channel, and does the detector still fire
 * under it?
 *
 * Expected physics, pinned by the goldens: remap hurts the
 * flush+reload channel because every rekey cycles the whole LLC
 * through the victim paths (back-invalidations corrupt in-flight
 * bits); mirage barely touches it — random placement defeats
 * eviction-set construction, but this channel never builds eviction
 * sets, which is exactly MIRAGE's stated threat-model boundary. The
 * detector keeps firing under both: randomizing *where* lines live
 * does not perturb the periodic flush train CC-Hunter keys on.
 *
 * Each cell is an independent seeded simulation fanned out over
 * `--jobs` workers; results are bit-identical for any worker count.
 * `--quick` trims the grid for CI (tests/golden/defense_quick).
 * Writes BENCH_defense_matrix.json and the re-runnable
 * BENCH_defense_matrix_manifest.json.
 */

#include <iostream>

#include "cohersim/attack.hh"
#include "cohersim/harness.hh"

namespace
{

using namespace csim;

struct CellResult
{
    double accuracy = 0.0;
    double effectiveKbps = 0.0;
    bool completed = false;
    bool detected = false;
    std::uint64_t detFlushes = 0;
    double detIntervalCv = 0.0;
    double detAlternation = 0.0;
};

CellResult
runCell(const ExperimentSpec &base, Scenario sc,
        const Preset *defense, const BitString &payload)
{
    ExperimentSpec spec = base;
    spec.channel.scenario = sc;
    if (defense)
        applyPreset(spec, *defense);
    CoherenceChannelDetector det;
    spec.channel.taps.push_back(&det);
    // Defended runs can leave the spy polling to the safety stop;
    // the margin in the manifest absorbs defense-induced slowdown.
    const ChannelReport report =
        runExperiment(spec, nullptr, &payload).channel;

    CellResult r;
    r.accuracy = report.metrics.accuracy;
    r.effectiveKbps = report.metrics.effectiveKbps;
    r.completed = report.completed;
    const LineVerdict v = det.verdict(lineAlign(report.shared.paddr));
    r.detected = v.suspicious;
    r.detFlushes = v.flushes;
    r.detIntervalCv = v.intervalCv;
    r.detAlternation = v.alternation;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace csim;

    RunnerOptions opts =
        RunnerOptions::fromArgs(argc, argv, /*has_quick_grid=*/true);
    opts.label = "defense_matrix";
    const bool quick = opts.quick;

    // Shared cell baseline: the paper's KSM setting, seed 2018. The
    // defense presets re-assert channel.sharing=ksm, so defended and
    // undefended cells compare like for like.
    ConfigResolver resolver;
    resolver.applyOverride("system.seed", "2018", "default");
    resolver.applyOverride("channel.sharing", "ksm", "bench");
    resolver.applyOverride("payload.bits", quick ? "48" : "120",
                           "bench");
    resolver.applyOverride("channel.timeout_margin", "20", "bench");
    resolver.dumpFile("BENCH_defense_matrix_manifest.json");
    const ExperimentSpec &base = resolver.spec();
    base.validate();

    Rng rng(12);
    const BitString payload = randomBits(
        rng, static_cast<std::size_t>(base.payload.bits));

    // Column 0 is the undefended channel, then the three §VIII-E
    // mitigations in paper order, then the randomized caches.
    std::vector<const Preset *> defenses =
        presetsWithPrefix("mitigation-");
    defenses.push_back(findPreset("defense-remap"));
    defenses.push_back(findPreset("defense-mirage"));
    const std::size_t columns = defenses.size() + 1;

    // The grid keeps Table I row 4 (RExclc-LSharedb): scenarios
    // whose bands straddle the local/remote divide are the ones the
    // rekey storm visibly degrades, so the CI golden pins the
    // interesting cell alongside a purely-local row that survives.
    const std::vector<Scenario> scenarios =
        quick ? std::vector<Scenario>{Scenario::rexcC_lshB}
              : std::vector<Scenario>{Scenario::lexcC_lshB,
                                      Scenario::rexcC_lshB,
                                      Scenario::rshC_lshB};

    std::cout << "== Defense matrix: attack scenarios x "
                 "{none, SVIII-E mitigations, randomized caches} "
                 "==\n\n";

    std::vector<std::function<CellResult()>> jobs;
    for (Scenario sc : scenarios) {
        for (std::size_t d = 0; d < columns; ++d) {
            const Preset *defense =
                d == 0 ? nullptr : defenses[d - 1];
            jobs.push_back([&base, &payload, sc, defense] {
                return runCell(base, sc, defense, payload);
            });
        }
    }
    double wall = 0.0;
    const std::vector<CellResult> results =
        runJobs(std::move(jobs), opts, &wall);

    Json artifact =
        benchArtifact("defense_matrix", opts.resolvedJobs(), wall);
    Json &rows = artifact["rows"];
    TablePrinter table;
    table.header({"scenario", "defense", "accuracy", "eff Kbps",
                  "detected"});
    bool baseline_strong = true;
    bool randomized_degrades = false;
    bool detector_survives_randomization = true;
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
        const CellResult &baseline = results[s * columns];
        baseline_strong =
            baseline_strong && baseline.accuracy >= 0.75;
        for (std::size_t d = 0; d < columns; ++d) {
            const CellResult &r = results[s * columns + d];
            const std::string name =
                d == 0 ? "none" : defenses[d - 1]->name;
            table.row({scenarioInfo(scenarios[s]).notation, name,
                       TablePrinter::pct(r.accuracy),
                       TablePrinter::num(r.effectiveKbps),
                       r.detected ? "yes" : "NO"});
            const bool randomized =
                name.rfind("defense-", 0) == 0;
            if (randomized) {
                if (r.accuracy < baseline.accuracy - 0.05 ||
                    r.effectiveKbps <
                        0.8 * baseline.effectiveKbps) {
                    randomized_degrades = true;
                }
                detector_survives_randomization =
                    detector_survives_randomization && r.detected;
            }
            Json row = Json::object();
            row["scenario"] = scenarioInfo(scenarios[s]).notation;
            row["defense"] = name;
            row["accuracy"] = r.accuracy;
            row["effective_kbps"] = r.effectiveKbps;
            row["completed"] = r.completed;
            row["detected"] = r.detected;
            row["detector_flushes"] =
                static_cast<std::int64_t>(r.detFlushes);
            row["detector_interval_cv"] = r.detIntervalCv;
            row["detector_alternation"] = r.detAlternation;
            rows.push(std::move(row));
        }
    }
    artifact["baseline_accuracy_strong"] = baseline_strong;
    artifact["randomized_defense_degrades_channel"] =
        randomized_degrades;
    artifact["detector_survives_randomization"] =
        detector_survives_randomization;
    table.print(std::cout);
    writeJsonFile("BENCH_defense_matrix.json", artifact);
    std::cout << "\n[" << results.size() << " transmissions, "
              << TablePrinter::num(wall, 2) << "s wall on "
              << opts.resolvedJobs()
              << " worker(s); BENCH_defense_matrix.json + "
                 "BENCH_defense_matrix_manifest.json written]\n";
    std::cout << "\nAcceptance: baseline accuracy strong: "
              << (baseline_strong ? "HOLDS" : "VIOLATED")
              << "; >=1 randomized defense degrades the channel: "
              << (randomized_degrades ? "HOLDS" : "VIOLATED")
              << "; CC-Hunter fires under randomization: "
              << (detector_survives_randomization ? "HOLDS"
                                                  : "VIOLATED")
              << "\n";
    std::cout
        << "\nReading the matrix: dynamic remapping degrades even a "
           "flush+reload channel — every rekey flushes the whole "
           "LLC through the victim paths, and the back-invalidation "
           "storm lands mid-transmission, corrupting bits the "
           "adversaries never retransmit. MIRAGE-style random "
           "placement leaves this channel essentially intact: it "
           "defeats eviction-set construction, and flush+reload "
           "needs no eviction sets (the spy names the line "
           "directly). Neither randomization hides the channel from "
           "CC-Hunter, whose verdict keys on the periodic flush "
           "train, not on where the line lives.\n";
    return quick ||
                   (baseline_strong && randomized_degrades &&
                    detector_survives_randomization)
               ? 0
               : 1;
}
