#include "os/ksm.hh"

#include "common/logging.hh"
#include "os/phys_mem.hh"
#include "os/process.hh"

namespace csim
{

KsmDaemon::KsmDaemon(PhysMem &phys) : phys_(phys) {}

std::vector<MergeEvent>
KsmDaemon::scanOnce(const std::vector<Process *> &processes)
{
    ++stats_.scans;
    std::vector<MergeEvent> events;

    // Stable-tree entries whose canonical page has been fully split
    // (all sharers COWed away) may be dangling; prune them first.
    for (auto it = stable_.begin(); it != stable_.end();) {
        if (!phys_.isAllocated(it->second))
            it = stable_.erase(it);
        else
            ++it;
    }

    // Unstable tree, rebuilt per scan as in Linux: first sighting of
    // a content hash is recorded here WITHOUT write-protecting the
    // page. Only when a second identical page turns up is the first
    // promoted to the stable tree (and made read-only COW) and the
    // second merged onto it. Singleton pages therefore stay writable
    // and never pay a COW fault.
    struct UnstableEntry
    {
        Process *proc;
        VAddr vpage;
    };
    std::unordered_map<std::uint64_t, UnstableEntry> unstable;

    for (Process *proc : processes) {
        // Merging remaps entries in place, in this process and in an
        // earlier sighting's, but maps and unmaps nothing, so the
        // walk may run over the live table.
        proc->forEachPage([&](VAddr vpage, const PageMapping &pm) {
            if (!pm.mergeable)
                return;
            PageMapping *m = proc->lookup(vpage);
            ++stats_.pagesScanned;

            const std::uint64_t h = phys_.contentHash(m->paddr);
            auto it = stable_.find(h);
            if (it == stable_.end()) {
                auto uit = unstable.find(h);
                if (uit == unstable.end()) {
                    unstable.emplace(h, UnstableEntry{proc, vpage});
                    return;
                }
                // Second page with this content in the same scan:
                // promote the first sighting to the stable tree. The
                // candidate may have been written (or even unmapped)
                // since we recorded it, so re-look it up and re-check
                // the content before trusting it.
                PageMapping *first =
                    uit->second.proc->lookup(uit->second.vpage);
                if (!first || !first->mergeable ||
                    phys_.contentHash(first->paddr) != h ||
                    !phys_.samePage(first->paddr, m->paddr)) {
                    // Stale candidate; the current page takes its
                    // place in the unstable tree.
                    uit->second = UnstableEntry{proc, vpage};
                    return;
                }
                first->writable = false;
                first->cow = true;
                it = stable_.emplace(h, first->paddr).first;
                // fall through to merge the current page onto it
            }
            const PAddr canonical = it->second;
            if (canonical == m->paddr)
                return;  // already merged onto the canonical
            // Guard against hash collisions with a byte comparison.
            if (!phys_.samePage(canonical, m->paddr))
                return;

            const PAddr released = m->paddr;
            phys_.addRef(canonical);
            PageMapping merged = *m;
            merged.paddr = canonical;
            merged.writable = false;
            merged.cow = true;
            proc->remap(vpage, merged);
            phys_.release(released);
            ++stats_.pagesMerged;
            events.push_back(MergeEvent{proc->pid(), vpage,
                                        canonical, released});
        });
    }
    return events;
}

} // namespace csim
