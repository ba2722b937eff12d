/**
 * @file
 * Multi-tenant scaling study: N concurrent trojan/spy pairs on one
 * machine, sweeping N over {1, 2, 4, 8, 16, 32, 50}.
 *
 * Two questions, both beyond the paper's single-pair experiments:
 *
 *  - capacity: how do per-pair accuracy and effective rate degrade
 *    as co-resident channels multiply past the machine's disjoint
 *    core blocks into oversubscription (preemption quanta destroy
 *    the spy's latency measurements);
 *  - detectability: CC-Hunter's per-line trains stay clean however
 *    many pairs run (each pair flushes its own line), but does an
 *    address-blind aggregate monitor still see periodicity when 50
 *    channels interleave?
 *
 * Each tenant count is one independent seeded fleet simulation,
 * fanned out over `--jobs` workers; results are bit-identical for
 * any worker count. `--quick` restricts the sweep to {1, 2, 4} (the
 * CI smoke and the tests/golden/fleet_quick gate). Writes
 * BENCH_fleet.json and the re-runnable BENCH_fleet_manifest.json.
 */

#include <cstring>
#include <iostream>

#include "cohersim/attack.hh"
#include "cohersim/harness.hh"

int
main(int argc, char **argv)
{
    using namespace csim;

    RunnerOptions opts = RunnerOptions::fromArgs(argc, argv);
    opts.label = "fleet";
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
    }

    // The fleet-quick preset carries the machine shape (16 cores per
    // socket: four disjoint 4-core pair blocks per socket before the
    // sweep wraps into oversubscription) and the channel rate; the
    // bench trims the payload and margin so the timed-out
    // oversubscribed runs stay affordable at 50 pairs.
    ConfigResolver resolver;
    resolver.applyOverride("system.seed", "2018", "default");
    resolver.applyPreset("fleet-quick");
    resolver.applyOverride("payload.bits", "48", "bench");
    resolver.applyOverride("channel.timeout_margin", "15", "bench");
    resolver.dumpFile("BENCH_fleet_manifest.json");
    const ExperimentSpec &base = resolver.spec();
    base.validate();

    const std::vector<int> tenant_counts =
        quick ? std::vector<int>{1, 2, 4}
              : std::vector<int>{1, 2, 4, 8, 16, 32, 50};

    // Calibration depends only on the machine and the protocol
    // parameters, which the sweep never varies: share one result.
    const ChannelConfig base_cfg = base.toChannelConfig();
    const CalibrationResult cal =
        calibrate(base_cfg.system, 400, base_cfg.params);

    std::cout << "== Fleet scaling: accuracy and aggregate "
                 "detectability vs co-resident pairs ==\n\n";

    std::vector<std::function<FleetReport()>> jobs;
    for (const int pairs : tenant_counts) {
        jobs.push_back([&base, &cal, pairs] {
            ExperimentSpec point = base;
            point.fleet.pairs = pairs;
            // The preset's noise agents keep the pairs=1 baseline a
            // fleet (FleetSpec::enabled), with the same report shape.
            return runExperiment(point, &cal).fleet;
        });
    }

    double wall = 0.0;
    const std::vector<FleetReport> reports =
        runJobs(std::move(jobs), opts, &wall);

    TablePrinter table;
    table.header({"pairs", "mean acc", "min acc", "mean Kbps",
                  "done", "flagged", "aggregate"});
    Json artifact =
        benchArtifact("fleet", opts.resolvedJobs(), wall);
    artifact["aggregate"] = Json::array();
    Json &rows = artifact["rows"];
    for (std::size_t i = 0; i < tenant_counts.size(); ++i) {
        const int pairs = tenant_counts[i];
        const FleetReport &rep = reports[i];
        double acc_sum = 0.0, acc_min = 1.0, kbps_sum = 0.0;
        int done = 0;
        for (const PairReport &pr : rep.pairs) {
            acc_sum += pr.metrics.accuracy;
            acc_min = std::min(acc_min, pr.metrics.accuracy);
            kbps_sum += pr.metrics.effectiveKbps;
            done += pr.completed ? 1 : 0;
            Json row = Json::object();
            row["pairs"] = static_cast<std::int64_t>(pairs);
            row["pair_id"] =
                static_cast<std::int64_t>(pr.pairId);
            row["scenario"] = scenarioInfo(pr.scenario).notation;
            row["accuracy"] = pr.metrics.accuracy;
            row["effective_kbps"] = pr.metrics.effectiveKbps;
            row["completed"] = pr.completed;
            row["line_flagged"] = pr.detect.suspicious;
            rows.push(std::move(row));
        }
        const double n = static_cast<double>(rep.pairs.size());
        Json agg = Json::object();
        agg["pairs"] = static_cast<std::int64_t>(pairs);
        agg["pairs_flagged"] =
            static_cast<std::int64_t>(rep.pairsFlagged);
        agg["aggregate_suspicious"] = rep.aggregate.suspicious;
        agg["aggregate_cv"] = rep.aggregate.intervalCv;
        agg["aggregate_alternation"] = rep.aggregate.alternation;
        agg["mean_accuracy"] = acc_sum / n;
        agg["completed"] = rep.completed;
        artifact["aggregate"].push(std::move(agg));
        table.row({std::to_string(pairs),
                   TablePrinter::pct(acc_sum / n),
                   TablePrinter::pct(acc_min),
                   TablePrinter::num(kbps_sum / n),
                   std::to_string(done) + "/" +
                       std::to_string(rep.pairs.size()),
                   std::to_string(rep.pairsFlagged) + "/" +
                       std::to_string(rep.pairs.size()),
                   rep.aggregate.suspicious ? "SUSPICIOUS"
                                            : "quiet"});
    }
    table.print(std::cout);
    writeJsonFile("BENCH_fleet.json", artifact);
    std::cout << "\n[" << tenant_counts.size() << " fleet "
              << "simulations, " << TablePrinter::num(wall, 2)
              << "s wall on " << opts.resolvedJobs()
              << " worker(s); BENCH_fleet.json + "
                 "BENCH_fleet_manifest.json written]\n";
    std::cout
        << "\nReading: pairs within the machine's disjoint core "
           "blocks transmit near single-pair accuracy (contending "
           "only through the shared uncore); once the sweep wraps "
           "into core oversubscription the preemption quantum "
           "shreds the spy's timing and the channels collapse. "
           "Per-line CC-Hunter keeps flagging the healthy pairs at "
           "any tenancy, while the address-blind aggregate train "
           "loses its periodicity as interleaving grows.\n";
    return 0;
}
