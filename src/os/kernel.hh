/**
 * @file
 * The simulated OS kernel: process management, address translation,
 * copy-on-write fault handling and thread/process binding. Implements
 * sim::MemoryBackend so the scheduler routes every memory operation
 * through virtual-memory translation before it reaches the coherent
 * hierarchy.
 */

#ifndef COHERSIM_OS_KERNEL_HH
#define COHERSIM_OS_KERNEL_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "mem/memory_system.hh"
#include "os/ksm.hh"
#include "os/ksm_guard.hh"
#include "os/phys_mem.hh"
#include "os/process.hh"
#include "sim/memory_backend.hh"
#include "sim/scheduler.hh"

namespace csim
{

/** OS-level counters. */
struct OsStats
{
    std::uint64_t cowFaults = 0;
};

/** The simulated kernel. */
class Kernel : public MemoryBackend
{
  public:
    explicit Kernel(MemorySystem &mem);

    /** Create a process (ordered by creation time for KSM). */
    Process &createProcess(const std::string &name);

    /** Process by pid; nullptr if unknown. */
    Process *process(ProcessId pid);

    /** Associate an existing simulated thread with a process. */
    void bindThread(ThreadId tid, ProcessId pid);

    /**
     * Spawn a simulated thread inside @p proc, pinned to @p core
     * (sched_setaffinity equivalent), and bind it to the process.
     */
    SimThread *spawnThread(Scheduler &sched, const std::string &name,
                           CoreId core, Process &proc,
                           std::function<Task(ThreadApi)> body);

    /**
     * Establish an explicitly shared read-only region between two
     * processes (the shared-library model of prior work, §IV).
     *
     * @return the region's base virtual address in each process.
     */
    std::pair<VAddr, VAddr>
    mapSharedRegion(Process &a, Process &b, std::uint64_t bytes);

    /**
     * Run one KSM scan over all processes. @return merge events.
     * @p when stamps the ksm.* trace events (the daemon itself has
     * no clock; callers in simulated threads pass api.now()).
     */
    std::vector<MergeEvent> runKsmScan(Tick when = 0);

    /**
     * Enable the KSM guard (paper §VIII-E mitigation 2): flushes on
     * merged pages are rate-monitored and suspicious pages are
     * un-merged.
     */
    KsmGuard &enableKsmGuard(KsmGuardParams params = {});

    /** The guard, if enabled. */
    KsmGuard *ksmGuard() { return guard_.get(); }

    /**
     * Split a merged page: every COW mapping of @p page gets its own
     * copy again (the first keeps the original). With @p quarantine
     * the split copies are made non-mergeable so KSM cannot re-merge
     * them.
     *
     * @return the number of mappings that were split or restored.
     * @p when stamps the ksm.unmerge trace event.
     */
    int unmergePage(PAddr page, bool quarantine, Tick when = 0);

    PhysMem &phys() { return phys_; }
    KsmDaemon &ksm() { return ksm_; }
    const KsmDaemon &ksm() const { return ksm_; }
    MemorySystem &mem() { return mem_; }
    const OsStats &stats() const { return stats_; }

    /** @name MemoryBackend interface */
    /** @{ */
    AccessResult load(ThreadId tid, CoreId core, VAddr addr,
                      Tick when) override;
    AccessResult store(ThreadId tid, CoreId core, VAddr addr,
                       Tick when) override;
    AccessResult flush(ThreadId tid, CoreId core, VAddr addr,
                       Tick when) override;
    /** @} */

  private:
    Process &procOfThread(ThreadId tid);

    MemorySystem &mem_;
    PhysMem phys_;
    KsmDaemon ksm_;
    std::unique_ptr<KsmGuard> guard_;
    std::vector<std::unique_ptr<Process>> processes_;
    /** Process of each bound thread, indexed by tid; null if unbound.
     *  Processes are never destroyed before the kernel. */
    std::vector<Process *> threadProc_;
    OsStats stats_;
};

/**
 * Convenience aggregate wiring a whole simulated machine together:
 * coherent memory hierarchy, kernel and scheduler.
 */
struct Machine
{
    explicit Machine(const SystemConfig &config,
                     SchedulerParams sched_params = {})
        : mem(config), kernel(mem),
          sched(&kernel, config.numCores(), sched_params)
    {
        // One bus for the whole machine: the scheduler publishes its
        // sched.* events next to the mem/os/channel streams.
        sched.setTraceBus(&mem.trace());
    }

    MemorySystem mem;
    Kernel kernel;
    Scheduler sched;
};

} // namespace csim

#endif // COHERSIM_OS_KERNEL_HH
