#include "os/kernel.hh"

#include "common/logging.hh"

namespace csim
{

Kernel::Kernel(MemorySystem &mem) : mem_(mem), ksm_(phys_) {}

Process &
Kernel::createProcess(const std::string &name)
{
    const auto pid = static_cast<ProcessId>(processes_.size());
    processes_.push_back(
        std::make_unique<Process>(pid, name, phys_));
    return *processes_.back();
}

Process *
Kernel::process(ProcessId pid)
{
    if (pid < 0 || static_cast<std::size_t>(pid) >= processes_.size())
        return nullptr;
    return processes_[static_cast<std::size_t>(pid)].get();
}

void
Kernel::bindThread(ThreadId tid, ProcessId pid)
{
    Process *proc = process(pid);
    fatal_if(!proc, "binding thread to unknown process ", pid);
    fatal_if(tid < 0, "binding invalid thread id ", tid);
    const auto idx = static_cast<std::size_t>(tid);
    if (idx >= threadProc_.size())
        threadProc_.resize(idx + 1, nullptr);
    threadProc_[idx] = proc;
}

SimThread *
Kernel::spawnThread(Scheduler &sched, const std::string &name,
                    CoreId core, Process &proc,
                    std::function<Task(ThreadApi)> body)
{
    SimThread *t = sched.spawn(name, core, proc.pid(),
                               std::move(body));
    bindThread(t->id(), proc.pid());
    return t;
}

std::pair<VAddr, VAddr>
Kernel::mapSharedRegion(Process &a, Process &b, std::uint64_t bytes)
{
    fatal_if(bytes == 0, "shared region of zero bytes");
    const std::uint64_t npages = (bytes + pageBytes - 1) / pageBytes;
    std::vector<PAddr> pages;
    pages.reserve(npages);
    for (std::uint64_t i = 0; i < npages; ++i)
        pages.push_back(phys_.allocPage());
    const VAddr va = a.mapPhysical(pages, /*writable=*/false);
    const VAddr vb = b.mapPhysical(pages, /*writable=*/false);
    // mapPhysical took one reference per process; drop the allocation
    // reference so the pages die with their last mapping.
    for (PAddr p : pages)
        phys_.release(p);
    if (mem_.trace().enabled(TraceCategory::os)) {
        mem_.trace().publish(TraceEvent{
            TraceEventType::osMapShared, TraceCategory::os,
            invalidCore, 0, pages.front(), npages,
            static_cast<std::uint64_t>(b.pid())});
    }
    return {va, vb};
}

std::vector<MergeEvent>
Kernel::runKsmScan(Tick when)
{
    std::vector<Process *> procs;
    procs.reserve(processes_.size());
    for (auto &p : processes_)
        procs.push_back(p.get());
    std::vector<MergeEvent> merges = ksm_.scanOnce(procs);
    if (mem_.trace().enabled(TraceCategory::os)) {
        for (const MergeEvent &m : merges) {
            mem_.trace().publish(TraceEvent{
                TraceEventType::osKsmMerge, TraceCategory::os,
                invalidCore, when, m.canonical,
                static_cast<std::uint64_t>(m.victimPid),
                m.released});
        }
        mem_.trace().publish(TraceEvent{
            TraceEventType::osKsmScan, TraceCategory::os,
            invalidCore, when, 0, merges.size(), 0});
    }
    return merges;
}

Process &
Kernel::procOfThread(ThreadId tid)
{
    // A negative tid wraps past every index.
    const auto idx = static_cast<std::size_t>(tid);
    Process *p = idx < threadProc_.size() ? threadProc_[idx] : nullptr;
    panic_if(!p, "thread ", tid, " not bound to any process");
    return *p;
}

AccessResult
Kernel::load(ThreadId tid, CoreId core, VAddr addr, Tick when)
{
    Process &proc = procOfThread(tid);
    const PageMapping *m = proc.lookup(addr);
    fatal_if(!m, proc.name(), ": segmentation fault (load of ", addr,
             ")");
    return mem_.load(core, m->paddr + pageOffset(addr), when);
}

AccessResult
Kernel::store(ThreadId tid, CoreId core, VAddr addr, Tick when)
{
    Process &proc = procOfThread(tid);
    PageMapping *m = proc.lookup(addr);
    fatal_if(!m, proc.name(), ": segmentation fault (store to ", addr,
             ")");
    Tick fault_lat = 0;
    if (!m->writable) {
        fatal_if(!m->cow, proc.name(),
                 ": segmentation fault (store to read-only page at ",
                 addr, ")");
        // Copy-on-write fault: split from the merged page. The page
        // stays mergeable, so a later KSM scan may re-merge it.
        const PAddr old_page = m->paddr;
        const PAddr new_page = phys_.allocPage();
        if (const auto *data = phys_.contents(old_page))
            phys_.setContents(new_page, *data);
        PageMapping split = *m;
        split.paddr = new_page;
        split.writable = true;
        split.cow = false;
        proc.remap(pageAlign(addr), split);
        phys_.release(old_page);
        ++stats_.cowFaults;
        ++ksm_.stats().pagesUnmerged;
        fault_lat = mem_.config().timing.cowFaultLat;
        if (mem_.trace().enabled(TraceCategory::os)) {
            mem_.trace().publish(TraceEvent{
                TraceEventType::osCowFault, TraceCategory::os, core,
                when, old_page,
                static_cast<std::uint64_t>(proc.pid()), new_page});
        }
        // remap rewrote the entry m points at.
    }
    AccessResult res =
        mem_.store(core, m->paddr + pageOffset(addr), when + fault_lat);
    res.latency += fault_lat;
    return res;
}

AccessResult
Kernel::flush(ThreadId tid, CoreId core, VAddr addr, Tick when)
{
    Process &proc = procOfThread(tid);
    const PageMapping *m = proc.lookup(addr);
    fatal_if(!m, proc.name(), ": segmentation fault (clflush of ",
             addr, ")");
    // The guard may un-merge the page. It remaps the entry m points
    // at, so m->paddr below is the page after any split.
    if (guard_ && m->cow)
        guard_->noteFlush(m->paddr, when);
    return mem_.flush(core, m->paddr + pageOffset(addr), when);
}

KsmGuard &
Kernel::enableKsmGuard(KsmGuardParams params)
{
    guard_ = std::make_unique<KsmGuard>(*this, params);
    return *guard_;
}

int
Kernel::unmergePage(PAddr page, bool quarantine, Tick when)
{
    int touched = 0;
    bool keeper_seen = false;
    for (auto &proc : processes_) {
        // remap rewrites entries in place, so the walk may remap the
        // page it is visiting.
        proc->forEachPage([&](VAddr vpage, const PageMapping &mapping) {
            if (mapping.paddr != page || !mapping.cow)
                return;
            PageMapping split = mapping;
            if (keeper_seen) {
                const PAddr fresh = phys_.allocPage();
                if (const auto *data = phys_.contents(page))
                    phys_.setContents(fresh, *data);
                split.paddr = fresh;
            }
            keeper_seen = true;
            split.writable = true;
            split.cow = false;
            if (quarantine)
                split.mergeable = false;
            const PAddr old = mapping.paddr;
            proc->remap(vpage, split);
            if (split.paddr != old)
                phys_.release(old);
            ++ksm_.stats().pagesUnmerged;
            ++touched;
        });
    }
    if (touched > 0 && mem_.trace().enabled(TraceCategory::os)) {
        mem_.trace().publish(TraceEvent{
            TraceEventType::osKsmUnmerge, TraceCategory::os,
            invalidCore, when, page,
            static_cast<std::uint64_t>(touched),
            quarantine ? 1u : 0u});
    }
    return touched;
}

} // namespace csim
