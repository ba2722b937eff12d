/**
 * @file
 * Full adversarial pipeline over implicitly shared memory: the
 * trojan and spy force-create a shared physical page with KSM memory
 * deduplication (no shared libraries or explicit sharing at all),
 * synchronize, and exfiltrate an "encryption key" through the
 * RExclc-LSharedb coherence-state channel while other workloads run.
 */

#include <iostream>

#include "cohersim/attack.hh"

int
main()
{
    using namespace csim;

    ChannelConfig cfg;
    cfg.system.seed = 1337;
    cfg.scenario = Scenario::rexcC_lshB;
    cfg.sharing = SharingMode::ksm;
    cfg.noiseThreads = 2;  // a moderately busy machine
    cfg.params = ChannelParams::forTargetKbps(
        400, cfg.system.timing);

    const std::string secret = "AES-KEY:2b7e151628aed2a6abf71588";
    std::cout << "== Covert exfiltration over a KSM-deduplicated "
                 "page ==\n\n";
    std::cout << "trojan exfiltrates: \"" << secret << "\" ("
              << secret.size() * 8 << " bits) via "
              << scenarioInfo(cfg.scenario).notation << " at ~400 "
              << "Kbps with 2 background processes\n\n";

    const ChannelReport rep =
        runTransmission(cfg, textToBits(secret));

    std::cout << "shared page established via "
              << sharingModeName(cfg.sharing) << " (attempt "
              << rep.shared.attempts << "), physical line 0x"
              << std::hex << rep.shared.paddr << std::dec << "\n";
    std::cout << "sync probes: " << rep.trojan.syncProbes
              << ", transmission: "
              << TablePrinter::num(
                     cfg.system.timing.cyclesToSeconds(
                         rep.trojan.txEnd - rep.trojan.txStart) *
                         1e3,
                     3)
              << " ms\n";
    std::cout << "spy received:       \"" << bitsToText(rep.received)
              << "\"\n";
    std::cout << "raw bit accuracy:   "
              << TablePrinter::pct(rep.metrics.accuracy) << " at "
              << TablePrinter::num(rep.metrics.rawKbps)
              << " Kbps\n";
    return rep.metrics.accuracy > 0.95 ? 0 : 1;
}
