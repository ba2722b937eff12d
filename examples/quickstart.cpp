/**
 * @file
 * Quickstart: calibrate the four (location, coherence state) latency
 * bands on the simulated dual-socket machine, then covertly transmit
 * a short message from the trojan to the spy and print what arrived.
 */

#include <iostream>

#include "cohersim/attack.hh"

int
main()
{
    using namespace csim;

    ChannelConfig cfg;
    cfg.system.seed = 42;
    cfg.scenario = Scenario::lexcC_lshB;

    std::cout << "== CoherSim quickstart ==\n\n";
    std::cout << "Calibrating latency bands (paper Fig. 2)...\n";
    const CalibrationResult cal = calibrate(cfg.system, 300);

    TablePrinter bands;
    bands.header({"combo", "mean (cyc)", "band lo", "band hi"});
    for (Combo c : allCombos()) {
        const auto &s = cal.comboSamples(c);
        bands.row({comboName(c), TablePrinter::num(s.mean()),
                   TablePrinter::num(cal.band(c).lo),
                   TablePrinter::num(cal.band(c).hi)});
    }
    bands.row({"DRAM (uncached)",
               TablePrinter::num(cal.dramSamples.mean()),
               TablePrinter::num(cal.dramBand.lo),
               TablePrinter::num(cal.dramBand.hi)});
    bands.print(std::cout);

    const std::string secret = "COHERENCE LEAKS";
    std::cout << "\nTransmitting \"" << secret << "\" via "
              << scenarioInfo(cfg.scenario).notation << "...\n";
    const ChannelReport report =
        runTransmission(cfg, textToBits(secret), &cal);

    std::cout << "received: \"" << bitsToText(report.received)
              << "\"\n";
    std::cout << "raw bit accuracy: "
              << TablePrinter::pct(report.metrics.accuracy)
              << ", rate: "
              << TablePrinter::num(report.metrics.rawKbps)
              << " Kbps, sync probes: " << report.trojan.syncProbes
              << "\n";
    return report.metrics.accuracy > 0.99 ? 0 : 1;
}
