/**
 * @file
 * Defence demo (paper §VIII-E technique 3): rebuilding the machine
 * with private caches that notify the LLC of E->M upgrades lets the
 * LLC serve E-state reads directly. The E and S latency bands
 * collapse and the coherence-state covert channel stops decoding.
 */

#include <iostream>

#include "cohersim/attack.hh"

namespace
{

csim::ChannelReport
attack(bool mitigated)
{
    using namespace csim;
    ChannelConfig cfg;
    cfg.system.seed = 99;
    cfg.scenario = Scenario::lexcC_lshB;
    cfg.system.timing.llcNotifiedOfUpgrade = mitigated;
    cfg.timeout = 300'000'000;
    Rng rng(1);
    return runTransmission(cfg, randomBits(rng, 64));
}

} // namespace

int
main()
{
    using namespace csim;

    std::cout << "== Hardware mitigation: LLC notified of E->M "
                 "upgrades ==\n\n";

    std::cout << "baseline machine (vulnerable):\n";
    const ChannelReport before = attack(false);
    std::cout << "  LExclc-LSharedb accuracy: "
              << TablePrinter::pct(before.metrics.accuracy)
              << "\n\n";

    std::cout << "mitigated machine (LLC answers E-state reads "
                 "directly):\n";
    const ChannelReport after = attack(true);
    std::cout << "  LExclc-LSharedb accuracy: "
              << TablePrinter::pct(after.metrics.accuracy) << " ("
              << (after.spy.sawTransmission
                      ? "spy decoded garbage"
                      : "spy never detected a transmission")
              << ")\n\n";

    // Show why: calibrate both machines and compare the bands.
    SystemConfig base;
    base.seed = 99;
    SystemConfig fixed = base;
    fixed.timing.llcNotifiedOfUpgrade = true;
    const CalibrationResult cal_before = calibrate(base, 300);
    const CalibrationResult cal_after = calibrate(fixed, 300);
    TablePrinter table;
    table.header({"combo", "baseline mean", "mitigated mean"});
    for (Combo c : {Combo::localShared, Combo::localExcl,
                    Combo::remoteShared, Combo::remoteExcl}) {
        table.row({comboName(c),
                   TablePrinter::num(
                       cal_before.comboSamples(c).mean()),
                   TablePrinter::num(
                       cal_after.comboSamples(c).mean())});
    }
    table.print(std::cout);
    std::cout << "\nWith the mitigation, E-state reads are served "
                 "by the LLC at S-state latency: the E/S bands "
                 "merge and the state bit is unobservable.\n";
    return (before.metrics.accuracy > 0.95 &&
            after.metrics.accuracy < 0.5)
               ? 0
               : 1;
}
