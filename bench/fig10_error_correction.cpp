/**
 * @file
 * Reproduces paper Figure 10: effective information bit rate of the
 * parity + NACK retransmission scheme, without noise and under
 * medium (4 kernel-build) and high (8 kernel-build) noise, for all
 * six scenarios. Results (including the retry-cost totals: NACK
 * windows observed and packets retransmitted) are written to
 * BENCH_fig10.json.
 */

#include <chrono>
#include <iostream>

#include "cohersim/attack.hh"
#include "cohersim/harness.hh"

int
main()
{
    using namespace csim;

    const auto wall_start = std::chrono::steady_clock::now();
    ChannelConfig cfg;
    cfg.system.seed = 2018;
    // Moderate operating rate: the paper transmits packets at the
    // channel's reliable rate and pays retransmission overhead on
    // top.
    cfg.params =
        ChannelParams::forTargetKbps(300, cfg.system.timing);
    cfg.phy.profile = PhyProfile::legacyParity;
    const CalibrationResult cal =
        calibrate(cfg.system, 400, cfg.params);
    Rng rng(10);
    const BitString payload = randomBits(rng, 1024);  // 2 packets

    std::cout << "== Figure 10: effective rate with error "
                 "detection + retransmission ==\n\n";
    TablePrinter table;
    table.header({"scenario", "no noise (Kbps)", "medium (Kbps)",
                  "high (Kbps)", "retx (0/4/8)",
                  "residual errors"});
    Json rows = Json::array();
    for (const ScenarioInfo &sc : allScenarios()) {
        cfg.scenario = sc.id;
        std::vector<double> rates;
        std::vector<std::uint64_t> retx;
        std::uint64_t residual = 0;
        for (int noise : {0, 4, 8}) {
            cfg.noiseThreads = noise;
            const ChannelReport rep =
                runTransmission(cfg, payload, &cal);
            rates.push_back(rep.metrics.effectiveKbps);
            retx.push_back(rep.metrics.retransmits);
            residual += rep.phy.residualErrors;
            Json row = Json::object();
            row["scenario"] = sc.notation;
            row["noise_threads"] =
                static_cast<std::int64_t>(noise);
            row["effective_kbps"] = rep.metrics.effectiveKbps;
            row["nacks"] =
                static_cast<std::int64_t>(rep.metrics.nacks);
            row["retransmissions"] =
                static_cast<std::int64_t>(rep.metrics.retransmits);
            row["raw_bits_sent"] =
                static_cast<std::int64_t>(rep.phy.rawBitsSent);
            row["residual_errors"] =
                static_cast<std::int64_t>(rep.phy.residualErrors);
            rows.push(std::move(row));
        }
        table.row({sc.notation, TablePrinter::num(rates[0]),
                   TablePrinter::num(rates[1]),
                   TablePrinter::num(rates[2]),
                   std::to_string(retx[0]) + "/" +
                       std::to_string(retx[1]) + "/" +
                       std::to_string(retx[2]),
                   std::to_string(residual)});
        std::cout << "." << std::flush;
    }
    std::cout << "\n\n";
    table.print(std::cout);
    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wall_start)
            .count();
    Json artifact = benchArtifact("fig10", 1, wall);
    artifact["rows"] = std::move(rows);
    writeJsonFile("BENCH_fig10.json", artifact);
    std::cout << "\n[BENCH_fig10.json written]\n";
    std::cout
        << "\nPaper: the retransmission scheme loses <10% rate "
           "under medium noise and up to 24% worst case under high "
           "noise, in exchange for (near-)guaranteed bit recovery. "
           "Residual errors, when present, are even-numbered flips "
           "inside one parity chunk - the scheme's documented blind "
           "spot.\n";
    return 0;
}
