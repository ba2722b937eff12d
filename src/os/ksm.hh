/**
 * @file
 * Kernel Same-page Merging (paper §IV).
 *
 * The daemon scans madvise(MERGEABLE) pages of every process in
 * process-creation order (earliest first, as the paper describes),
 * identifies byte-identical pages by content hash + byte comparison,
 * and merges them onto a single read-only copy-on-write physical
 * page. Writes to merged pages fault and are split by the kernel
 * (Kernel::store), restoring private copies.
 *
 * As in Linux, candidates live in a per-scan *unstable* tree while
 * they are still singletons: a page is only write-protected and
 * promoted to the persistent *stable* tree once a second identical
 * page is found, so unshared mergeable pages never pay COW faults.
 */

#ifndef COHERSIM_OS_KSM_HH
#define COHERSIM_OS_KSM_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace csim
{

class PhysMem;
class Process;

/** Result counters for KSM activity. */
struct KsmStats
{
    std::uint64_t scans = 0;
    std::uint64_t pagesScanned = 0;
    std::uint64_t pagesMerged = 0;
    std::uint64_t pagesUnmerged = 0;  //!< bumped by Kernel COW splits
};

/** One merge performed during a scan (for tests/tracing). */
struct MergeEvent
{
    ProcessId victimPid;   //!< process whose page was replaced
    VAddr victimVaddr;     //!< virtual page that got remapped
    PAddr canonical;       //!< surviving physical page
    PAddr released;        //!< physical page returned to the pool
};

/** The KSM daemon. */
class KsmDaemon
{
  public:
    explicit KsmDaemon(PhysMem &phys);

    /**
     * Scan all mergeable pages of @p processes (must be ordered by
     * start time) and merge identical ones.
     *
     * @return merge events performed during this scan.
     */
    std::vector<MergeEvent>
    scanOnce(const std::vector<Process *> &processes);

    const KsmStats &stats() const { return stats_; }
    KsmStats &stats() { return stats_; }

  private:
    PhysMem &phys_;
    /** Stable tree: content hash -> canonical physical page. */
    std::unordered_map<std::uint64_t, PAddr> stable_;
    KsmStats stats_;
};

} // namespace csim

#endif // COHERSIM_OS_KSM_HH
