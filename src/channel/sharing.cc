#include "channel/sharing.hh"

#include "common/logging.hh"

namespace csim
{

namespace
{

/** Fill one page in @p proc with the pattern derived from a seed. */
VAddr
makePatternPage(Process &proc, std::uint64_t seed)
{
    const VAddr va = proc.mmap(pageBytes);
    Rng rng(seed);
    std::vector<std::uint8_t> pattern(pageBytes);
    for (auto &b : pattern)
        b = static_cast<std::uint8_t>(rng.next());
    proc.writeData(va, pattern);
    proc.madviseMergeable(va, pageBytes);
    return va;
}

/** One merge attempt; returns true when uniquely shared. */
bool
tryDedup(Machine &machine, Process &trojan, Process &spy,
         std::uint64_t seed, VAddr &tva, VAddr &sva, PAddr &paddr)
{
    tva = makePatternPage(trojan, seed);
    sva = makePatternPage(spy, seed);
    machine.kernel.runKsmScan();
    const PAddr pt = pageAlign(trojan.translate(tva));
    const PAddr ps = pageAlign(spy.translate(sva));
    if (pt != ps)
        return false;  // merge did not happen
    // Trial-communication check (§IV): make sure no external process
    // shares this page, otherwise its accesses would add noise. The
    // refcount stands in for the paper's flush+reload probing.
    if (machine.kernel.phys().refCount(pt) != 2)
        return false;
    paddr = pt;
    return true;
}

/** Announce the agreed-upon block on the machine's trace bus. */
void
publishShareEstablished(Machine &machine, const SharedBlock &block)
{
    TraceBus &bus = machine.mem.trace();
    if (!bus.enabled(TraceCategory::channel))
        return;
    bus.publish(TraceEvent{TraceEventType::chShareEstablished,
                           TraceCategory::channel, invalidCore,
                           machine.sched.now(), block.paddr,
                           static_cast<std::uint64_t>(block.attempts),
                           block.viaKsm ? 1u : 0u});
}

} // namespace

const char *
sharingModeName(SharingMode m)
{
    switch (m) {
      case SharingMode::explicitShared: return "explicit";
      case SharingMode::ksm: return "ksm";
    }
    return "?";
}

SharedBlock
establishWritableBlock(Machine &machine, Process &trojan, Process &spy)
{
    SharedBlock out;
    PhysMem &phys = machine.kernel.phys();
    const PAddr page = phys.allocPage();
    out.trojanVa = trojan.mapPhysical({page}, /*writable=*/true);
    out.spyVa = spy.mapPhysical({page}, /*writable=*/true);
    // mapPhysical took one reference per process; drop the allocation
    // reference so the page dies with its last mapping.
    phys.release(page);
    out.paddr = page;
    publishShareEstablished(machine, out);
    return out;
}

SharedBlock
establishSharedBlock(Machine &machine, Process &trojan, Process &spy,
                     SharingMode mode, std::uint64_t pattern_seed)
{
    SharedBlock out;
    if (mode == SharingMode::explicitShared) {
        const auto [tva, sva] =
            machine.kernel.mapSharedRegion(trojan, spy, pageBytes);
        out.trojanVa = tva;
        out.spyVa = sva;
        out.paddr = pageAlign(trojan.translate(tva));
        publishShareEstablished(machine, out);
        return out;
    }

    out.viaKsm = true;
    constexpr int maxAttempts = 16;
    for (int attempt = 0; attempt < maxAttempts; ++attempt) {
        out.attempts = attempt + 1;
        const std::uint64_t seed =
            pattern_seed + static_cast<std::uint64_t>(attempt) *
                               0x9e3779b97f4a7c15ULL;
        VAddr tva, sva;
        PAddr paddr;
        if (!tryDedup(machine, trojan, spy, seed, tva, sva, paddr))
            continue;
        out.trojanVa = tva;
        out.spyVa = sva;
        out.paddr = paddr;
        // Deduplicate a spare page too, so a later external merge
        // onto the active page can be survived without re-invoking
        // KSM (paper §VII-A).
        VAddr stva, ssva;
        PAddr spaddr;
        if (tryDedup(machine, trojan, spy, seed ^ 0x5bd1e995, stva,
                     ssva, spaddr)) {
            out.spareTrojanVa = stva;
            out.spareSpyVa = ssva;
        }
        publishShareEstablished(machine, out);
        return out;
    }
    fatal("KSM sharing failed after ", maxAttempts,
          " pattern attempts");
}

} // namespace csim
