/**
 * @file
 * The coherent memory hierarchy of the simulated machine.
 *
 * Implements the structure the paper attacks (§VI): per-core private
 * write-back L1/L2 caches kept coherent with a MESI directory
 * protocol, a shared *inclusive* LLC per socket holding a core-valid
 * bit vector per line, a QPI-like inter-socket link probed before
 * DRAM, and a contention/jitter timing model producing the distinct
 * latency bands of Figure 2.
 */

#ifndef COHERSIM_MEM_MEMORY_SYSTEM_HH
#define COHERSIM_MEM_MEMORY_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/line_map.hh"
#include "common/random.hh"
#include "common/types.hh"
#include "mem/cache.hh"
#include "mem/params.hh"
#include "prof/profiler.hh"
#include "sim/memory_backend.hh"
#include "trace/bus.hh"

namespace csim
{

/** Aggregate counters exported by the memory system. */
struct MemStats
{
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t flushes = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t localLlcServes = 0;
    std::uint64_t localOwnerForwards = 0;
    std::uint64_t remoteLlcServes = 0;
    std::uint64_t remoteOwnerForwards = 0;
    std::uint64_t dramAccesses = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t backInvalidations = 0;
    std::uint64_t upgrades = 0;
    Tick queueWaitCycles = 0;
};

/**
 * Immutable point-in-time view of one line across the whole machine:
 * per-core private state, per-socket LLC/directory state and the
 * home-agent presence bits, gathered consistently in one call.
 * Produced by MemorySystem::inspect(); replaces the four ad-hoc
 * accessors (privateState / llcCoreValid / llcHas / socketPresence).
 */
struct LineSnapshot
{
    PAddr line = 0;              //!< line-aligned address inspected
    /** Global directory: bit s set if socket s holds the line. */
    std::uint32_t presence = 0;
    /** Private L1/L2 state per core, indexed by CoreId. */
    std::vector<Mesi> priv;

    /** One socket's shared-level view of the line. */
    struct SocketView
    {
        bool llcHas = false;          //!< LLC data array holds it
        std::uint32_t coreValid = 0;  //!< LLC directory bits
        /**
         * Effective private-holder bits: equals coreValid with an
         * inclusive LLC, the snoop-filter entry otherwise.
         */
        std::uint32_t residency = 0;
        bool dirty = false;           //!< LLC copy newer than DRAM
        bool ownerModified = false;   //!< E->M upgrade notification
    };
    std::vector<SocketView> sockets;  //!< indexed by SocketId

    /** Whether any cache in the machine holds the line. */
    bool heldAnywhere() const { return presence != 0; }
};

/**
 * Owns every cache in the machine and implements the coherence
 * protocol over physical addresses. The OS layer sits on top,
 * translating virtual addresses.
 */
class MemorySystem
{
  public:
    explicit MemorySystem(const SystemConfig &config);

    MemorySystem(const MemorySystem &) = delete;
    MemorySystem &operator=(const MemorySystem &) = delete;

    /**
     * @name Timed operations (physical addresses)
     * The public entry points are thin wrappers over the protocol
     * implementations so the self-profiler can sample every
     * stride-th operation (per MemorySystem, keeping the sampled set
     * deterministic at any host --jobs split). The cost is one
     * member load and a predictable branch (the countdown doubles as
     * the enable flag: armed at construction iff the profiler is on,
     * see Profiler::armSample), plus the countdown decrement when
     * armed. All recording lives out of line in profiledOp, entered
     * once per stride.
     * @{
     */
    AccessResult
    load(CoreId core, PAddr addr, Tick when)
    {
        if (profCountdown_ != 0 && --profCountdown_ == 0)
            [[unlikely]]
            return profiledOp(0, core, addr, when);
        return loadImpl(core, addr, when);
    }

    AccessResult
    store(CoreId core, PAddr addr, Tick when)
    {
        if (profCountdown_ != 0 && --profCountdown_ == 0)
            [[unlikely]]
            return profiledOp(1, core, addr, when);
        return storeImpl(core, addr, when);
    }

    AccessResult
    flush(CoreId core, PAddr addr, Tick when)
    {
        if (profCountdown_ != 0 && --profCountdown_ == 0)
            [[unlikely]]
            return profiledOp(2, core, addr, when);
        return flushImpl(core, addr, when);
    }
    /** @} */

    /**
     * @name Introspection (tests / attack verification)
     * These do not advance time or disturb state.
     * @{
     */
    /** Snapshot everything the machine knows about one line. */
    LineSnapshot inspect(PAddr addr) const;
    /**
     * A socket's LLC structure, exposed read-only so conflict-line
     * finders can probe set membership through Cache::setIndex (and
     * hence through whatever IndexFunction is configured) instead of
     * assuming linear set-stride arithmetic.
     */
    const Cache &
    llcOf(SocketId socket) const
    {
        return *sockets_[static_cast<std::size_t>(socket)].llc;
    }
    /**
     * Verify every coherence invariant (single E/M owner, inclusion,
     * directory consistency). @return empty string if consistent,
     * otherwise a description of the first violation.
     */
    std::string checkInvariants() const;
    /** @} */

    const SystemConfig &config() const { return config_; }
    const MemStats &stats() const { return stats_; }

    /**
     * Debug aid: when set to a line address, every operation touching
     * that line is printed with its timestamp, core and outcome.
     */
    PAddr traceLine = 0;

    /**
     * The machine-wide trace event bus. Owned here (the lowest layer
     * every component can reach) so hardware-level detectors can
     * observe a bare MemorySystem and the OS/scheduler/channel layers
     * publish into the same stream. Keep subscribers cheap: mem
     * events fire on every memory operation.
     */
    TraceBus &trace() { return trace_; }
    const TraceBus &trace() const { return trace_; }

    /** Deterministic jitter source; exposed for the OS layer. */
    Rng &rng() { return rng_; }

  private:
    /**
     * A serially reusable resource (LLC port, QPI link, DRAM
     * channel) with an exponentially decayed utilization estimate.
     */
    struct Resource
    {
        Tick busyUntil = 0;
        Tick lastNoteAt = 0;
        double util = 0.0;
        /** Which link.* trace event occupying this resource emits. */
        TraceEventType tag = TraceEventType::linkDram;

        /** Utilization estimate at @p now, in [0, ~1.5]. */
        double utilAt(Tick now, double tau) const;
    };

    /** Per-socket shared structures. */
    struct Socket
    {
        std::unique_ptr<Cache> llc;
        Resource llcPort;
    };

    /** @name Topology helpers */
    /** @{ */
    SocketId socketOf(CoreId core) const
    {
        return config_.socketOf(core);
    }
    /** Bit for @p core within its socket's core-valid vector. */
    std::uint32_t
    coreBit(CoreId core) const
    {
        return 1u << (core % config_.coresPerSocket);
    }
    CoreId
    coreFromBit(SocketId socket, std::uint32_t bits) const;
    /** @} */

    /** @name Protocol implementations (coherence.cc) */
    /** @{ */
    AccessResult loadImpl(CoreId core, PAddr addr, Tick when);
    AccessResult storeImpl(CoreId core, PAddr addr, Tick when);
    AccessResult flushImpl(CoreId core, PAddr addr, Tick when);
    /**
     * Profiling-enabled path of load/store/flush (@p kind 0/1/2):
     * counts every op down and wall-times the stride-th one into a
     * sampled "mem.*" span (memory_system.cc). Never touches sim
     * state — results are bit-identical to the bare implementations.
     */
    AccessResult profiledOp(int kind, CoreId core, PAddr addr,
                            Tick when);
    /** @} */

    /** @name Protocol actions (coherence.cc) */
    /** @{ */
    /**
     * Service a read request at the local socket's LLC/directory.
     * Fills @p served and returns the base path latency, or returns
     * maxTick when the local LLC misses.
     */
    Tick serveLocal(CoreId core, PAddr addr, Tick when,
                    ServedBy &served);
    /** Service a read that missed locally from a remote socket. */
    Tick serveRemote(CoreId core, SocketId remote, PAddr addr,
                     Tick when, ServedBy &served);
    /** Service a read from DRAM and install the line. */
    Tick serveDram(CoreId core, PAddr addr, Tick when,
                   ServedBy &served);

    /** Fill a line into a core's L1+L2 in @p state. */
    void fillPrivate(CoreId core, PAddr addr, Mesi state, Tick when);
    /** Install a line into a socket's LLC, handling the victim. */
    CacheLine &installLlc(SocketId socket, PAddr addr, Tick when);
    /** Remove a line from one core's private caches. */
    void invalidatePrivate(CoreId core, PAddr addr);
    /** Set the private-cache state of a line in both L1 and L2. */
    void setPrivateState(CoreId core, PAddr addr, Mesi state);
    /** Evict handling for a displaced private L2 line. */
    void handleL2Victim(CoreId core, const CacheLine &victim,
                        Tick when);
    /** Evict handling for a displaced LLC line (back-invalidation). */
    void handleLlcVictim(SocketId socket, const CacheLine &victim,
                         Tick when);
    /**
     * Invalidate every copy of a line except @p keep_core's.
     * @return true if remote-socket copies had to be invalidated.
     */
    bool invalidateOthers(CoreId keep_core, PAddr addr, Tick when);
    /** The O-state holder among a socket's sharers (MOESI only). */
    CoreId dirtySharerOf(SocketId socket, std::uint32_t core_valid,
                         PAddr line) const;
    /**
     * @name Residency tracking
     * Which cores of a socket hold a line privately. Inclusive
     * mode stores this in the LLC line's core-valid bits;
     * non-inclusive mode uses the dedicated snoop filter.
     * @{
     */
    std::uint32_t residencyBits(SocketId socket, PAddr line) const;
    void addResidency(SocketId socket, PAddr line, CoreId core);
    void clearResidency(SocketId socket, PAddr line, CoreId core);
    /** Drop the snoop-filter entry and maybe the global-dir bit. */
    void reconcilePresence(SocketId socket, PAddr line);
    /** @} */
    /** Downgrade any F-state copy to S (MESIF designation moves). */
    void clearForwarder(PAddr line);
    /** @} */

    /**
     * @name Internal introspection
     * Hot-path equivalents of the public accessors: they take a
     * pre-aligned line address and carry no deprecation baggage.
     * @{
     */
    /** Combined L1/L2 state of @p line in @p core's private caches. */
    Mesi
    privState(CoreId core, PAddr line) const
    {
        const auto idx = static_cast<std::size_t>(core);
        if (const CacheLine *l = l1s_[idx]->find(line))
            return l->state;
        if (const CacheLine *l = l2s_[idx]->find(line))
            return l->state;
        return Mesi::invalid;
    }
    /** Socket presence bits of @p line in the global directory. */
    std::uint32_t
    presenceBits(PAddr line) const
    {
        return globalDir_.lookup(line);
    }
    /** @} */

    /** @name Timing helpers (memory_system.cc) */
    /** @{ */
    /** Queue on a resource; returns wait cycles, updates its meter. */
    Tick occupy(Resource &res, Tick when, Tick service);
    /** Per-operation gaussian + long-tail jitter. */
    Tick jitter();
    /**
     * Remap mode: count down LLC-side operations and, on expiry,
     * flush every LLC through the normal victim paths and install a
     * fresh index key. Called at the top of load/store/flush; the
     * countdown stays 0 for every other index mode, so the fast path
     * is one predictable load-and-branch (inline: the call itself
     * was a measurable tax on the L1-hit kernel).
     */
    void
    maybeRekey(Tick when)
    {
        if (remapCountdown_ != 0 && --remapCountdown_ == 0) {
            remapCountdown_ = config_.remapPeriod;
            rekeyNow(when);
        }
    }
    /** The rekey event itself (remap mode, countdown expired). */
    void rekeyNow(Tick when);
    /**
     * Utilization-scaled interference delay for a load that
     * traversed resources with summed utilization @p util.
     */
    Tick contentionDelay(double util);
    /** @} */

    SystemConfig config_;
    std::vector<std::unique_ptr<Cache>> l1s_;  //!< per core
    std::vector<std::unique_ptr<Cache>> l2s_;  //!< per core
    std::vector<Socket> sockets_;
    /**
     * Home-agent directory: socket presence bits per line. Consulted
     * on every private miss and erased/inserted on every LLC fill or
     * eviction, so it uses the flat open-addressed LineMap rather
     * than a node-based map.
     */
    LineMap globalDir_;
    /**
     * Non-inclusive (nine/exclusive) modes only: per-socket snoop
     * filter tracking private residency independently of the LLC
     * data array.
     */
    std::vector<LineMap> snoopFilter_;
    /** Remap mode: LLC-side operations until the next rekey. */
    std::uint64_t remapCountdown_ = 0;
    /** rekeyNow()'s snapshot of one LLC, reused across rekeys. */
    std::vector<CacheLine> rekeyResident_;
    /**
     * Ops until the next profiled sample. Per-MemorySystem (not
     * per-thread): the op stream of one simulated machine is
     * deterministic, so the sampled subset — and the deterministic
     * profile columns — are identical at any host --jobs split.
     */
    std::uint32_t profCountdown_ = Profiler::armSample();
    Resource qpi_;
    Resource dram_;
    /** Summed utilization of resources the current load traversed. */
    double pathUtil_ = 0.0;
    Rng rng_;
    MemStats stats_;
    TraceBus trace_;
};

} // namespace csim

#endif // COHERSIM_MEM_MEMORY_SYSTEM_HH
