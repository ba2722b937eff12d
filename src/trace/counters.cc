#include "trace/counters.hh"

#include "os/kernel.hh"
#include "runner/json_sink.hh"

namespace csim
{

std::uint64_t &
CounterRegistry::counter(const std::string &name)
{
    for (auto &[n, v] : entries_) {
        if (n == name)
            return v;
    }
    entries_.emplace_back(name, 0);
    return entries_.back().second;
}

std::uint64_t
CounterRegistry::value(const std::string &name) const
{
    for (const auto &[n, v] : entries_) {
        if (n == name)
            return v;
    }
    return 0;
}

void
CounterRegistry::merge(const CounterRegistry &other)
{
    for (const auto &[name, val] : other.entries_)
        counter(name) += val;
}

Json
CounterRegistry::toJson() const
{
    Json obj = Json::object();
    for (const auto &[name, val] : entries_)
        obj[name] = val;
    return obj;
}

CounterRegistry
collectCounters(const Machine &machine)
{
    CounterRegistry reg;
    const MemStats &m = machine.mem.stats();
    reg.counter("mem.loads") = m.loads;
    reg.counter("mem.stores") = m.stores;
    reg.counter("mem.flushes") = m.flushes;
    reg.counter("mem.l1_hits") = m.l1Hits;
    reg.counter("mem.l2_hits") = m.l2Hits;
    reg.counter("coh.local_llc_serves") = m.localLlcServes;
    reg.counter("coh.local_owner_forwards") = m.localOwnerForwards;
    reg.counter("coh.remote_llc_serves") = m.remoteLlcServes;
    reg.counter("coh.remote_owner_forwards") = m.remoteOwnerForwards;
    reg.counter("coh.writebacks") = m.writebacks;
    reg.counter("coh.back_invalidations") = m.backInvalidations;
    reg.counter("coh.upgrades") = m.upgrades;
    reg.counter("link.dram_accesses") = m.dramAccesses;
    reg.counter("link.queue_wait_cycles") = m.queueWaitCycles;
    const OsStats &o = machine.kernel.stats();
    reg.counter("os.cow_faults") = o.cowFaults;
    const KsmStats &k = machine.kernel.ksm().stats();
    reg.counter("ksm.scans") = k.scans;
    reg.counter("ksm.pages_scanned") = k.pagesScanned;
    reg.counter("ksm.pages_merged") = k.pagesMerged;
    reg.counter("ksm.pages_unmerged") = k.pagesUnmerged;
    reg.counter("trace.published") = machine.mem.trace().published();
    return reg;
}

} // namespace csim
