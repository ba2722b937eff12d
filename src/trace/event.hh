/**
 * @file
 * The typed event vocabulary of the tracing subsystem.
 *
 * Every observable simulator occurrence is a TraceEvent: a category
 * (for cheap filtering), a concrete type, the virtual timestamp, the
 * core it happened on and two generic payload words. Events are plain
 * aggregates, so a recorder stores them by value.
 */

#ifndef COHERSIM_TRACE_EVENT_HH
#define COHERSIM_TRACE_EVENT_HH

#include <cstdint>

#include "common/types.hh"

namespace csim
{

/** Coarse event families, one bus filter bit each. */
enum class TraceCategory : std::uint8_t
{
    mem = 0,    //!< raw load/store/flush operation stream
    coherence,  //!< protocol transitions: downgrades, forwards, ...
    link,       //!< LLC port / QPI / DRAM occupancy and service
    os,         //!< KSM scan/merge, COW splits, page mapping
    sched,      //!< thread switches, preemptions, sleeps
    channel,    //!< attack protocol milestones (sync, bits, NACKs)
    numCategories,
};

inline constexpr int numTraceCategories =
    static_cast<int>(TraceCategory::numCategories);

/** Bus filter bit for a category. */
constexpr std::uint32_t
categoryBit(TraceCategory c)
{
    return 1u << static_cast<unsigned>(c);
}

/** Mask with every category enabled. */
inline constexpr std::uint32_t allTraceCategories =
    (1u << numTraceCategories) - 1;

/** Printable name of a category ("mem", "coherence", ...). */
const char *traceCategoryName(TraceCategory c);

/** Concrete event types. Payload word meaning is per type. */
enum class TraceEventType : std::uint8_t
{
    /** @name mem — a = ServedBy, b = latency (loads only) */
    /** @{ */
    memLoad,
    memStore,
    memFlush,
    /** @} */
    /** @name coherence */
    /** @{ */
    cohDowngrade,       //!< a = old Mesi, b = new Mesi; core = owner
    cohOwnerForward,    //!< a = requester core, b = 1 if cross-socket
    cohUpgrade,         //!< a = old Mesi, b = 1 if remote copies died
    cohWriteback,       //!< dirty data left a private cache / LLC
    cohBackInvalidate,  //!< inclusive-LLC victim killed a private copy
    /** @} */
    /** @name link — a = queue wait, b = service cycles */
    /** @{ */
    linkLlc,
    linkQpi,
    linkDram,
    /** @} */
    /** @name os */
    /** @{ */
    osKsmScan,     //!< a = pages merged this scan
    osKsmMerge,    //!< addr = canonical page, a = pid, b = released
    osKsmUnmerge,  //!< addr = page, a = mappings split, b = quarantine
    osCowFault,    //!< addr = old page, a = pid, b = new page
    osMapShared,   //!< a = pages mapped into two processes
    /** @} */
    /** @name sched */
    /** @{ */
    schedSwitch,   //!< a = previous thread, b = next thread
    schedPreempt,  //!< a = thread whose quantum expired
    schedSleep,    //!< a = thread, b = sleep cycles
    /** @} */
    /** @name channel */
    /** @{ */
    chSyncDone,        //!< a = sync probes spent
    chTxStart,
    chTxBoundary,      //!< CSb phase begins
    chTxBit,           //!< a = bit value
    chTxEnd,
    chRxStart,
    chRxBit,           //!< a = bit value, b = bit index
    chRxEnd,           //!< a = bits received
    chNack,            //!< a = retransmission attempt count
    chRetransmit,      //!< a = packet sequence number
    chPacketAccepted,  //!< a = packet sequence number
    chShareEstablished,  //!< addr = shared line, a = attempts, b = ksm
    chSyncSlip,          //!< a = consecutive out-of-band samples
    chRetransmitExhausted,  //!< a = retries spent on the packet
    /** @} */
    /** @name channel PHY stack (src/phy) */
    /** @{ */
    chPhyAdapt,          //!< a = chosen profile, b = rate (Kbps)
    chPhyPreambleLock,   //!< a = mismatches in the matched window
    chPhyHeaderBad,      //!< a = headers rejected so far
    chPhyFecCorrected,   //!< a = corrected codewords, b = frame seq
    chPhyFecBad,         //!< a = uncorrectable codewords, b = seq
    chPhyFrame,          //!< a = frame seq, b = 1 if accepted
    /** @} */
    numTypes,
};

/** Printable name of an event type ("mem.load", "ksm.merge", ...). */
const char *traceTypeName(TraceEventType t);

/**
 * Parse an event-type name; @return numTypes when unknown. Accepts
 * the names printed by traceTypeName(); lets saved traces (Perfetto
 * JSON) round-trip back into typed events.
 */
TraceEventType traceTypeFromName(const char *name);

/** The category an event type belongs to. */
TraceCategory traceTypeCategory(TraceEventType t);

/**
 * One observable simulator occurrence. Plain aggregate; category is
 * stored (not recomputed) so subscribers filter with one compare.
 */
struct TraceEvent
{
    TraceEventType type{};
    TraceCategory category{};
    CoreId core = invalidCore;  //!< core involved; invalidCore if none
    Tick when = 0;              //!< virtual timestamp
    PAddr addr = 0;             //!< line/page address when meaningful
    std::uint64_t a = 0;        //!< payload word 1 (per-type meaning)
    std::uint64_t b = 0;        //!< payload word 2 (per-type meaning)
    /**
     * Channel-pair attribution: which trojan/spy pair the event
     * belongs to. 0 for events outside any pair (memory traffic,
     * noise, the single-pair legacy path); fleet pairs are numbered
     * from 1 so their streams stay separable when N channels share
     * one machine.
     */
    std::uint32_t pair = 0;
};

} // namespace csim

#endif // COHERSIM_TRACE_EVENT_HH
