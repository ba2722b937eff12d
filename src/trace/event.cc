#include "trace/event.hh"

#include <cstring>

namespace csim
{

const char *
traceCategoryName(TraceCategory c)
{
    switch (c) {
      case TraceCategory::mem: return "mem";
      case TraceCategory::coherence: return "coherence";
      case TraceCategory::link: return "link";
      case TraceCategory::os: return "os";
      case TraceCategory::sched: return "sched";
      case TraceCategory::channel: return "channel";
      case TraceCategory::numCategories: break;
    }
    return "?";
}

const char *
traceTypeName(TraceEventType t)
{
    switch (t) {
      case TraceEventType::memLoad: return "mem.load";
      case TraceEventType::memStore: return "mem.store";
      case TraceEventType::memFlush: return "mem.flush";
      case TraceEventType::cohDowngrade: return "coh.downgrade";
      case TraceEventType::cohOwnerForward: return "coh.owner_forward";
      case TraceEventType::cohUpgrade: return "coh.upgrade";
      case TraceEventType::cohWriteback: return "coh.writeback";
      case TraceEventType::cohBackInvalidate:
        return "coh.back_invalidate";
      case TraceEventType::linkLlc: return "link.llc_port";
      case TraceEventType::linkQpi: return "link.qpi";
      case TraceEventType::linkDram: return "link.dram";
      case TraceEventType::osKsmScan: return "ksm.scan";
      case TraceEventType::osKsmMerge: return "ksm.merge";
      case TraceEventType::osKsmUnmerge: return "ksm.unmerge";
      case TraceEventType::osCowFault: return "os.cow_fault";
      case TraceEventType::osMapShared: return "os.map_shared";
      case TraceEventType::schedSwitch: return "sched.switch";
      case TraceEventType::schedPreempt: return "sched.preempt";
      case TraceEventType::schedSleep: return "sched.sleep";
      case TraceEventType::chSyncDone: return "ch.sync_done";
      case TraceEventType::chTxStart: return "ch.tx_start";
      case TraceEventType::chTxBoundary: return "ch.tx_boundary";
      case TraceEventType::chTxBit: return "ch.tx_bit";
      case TraceEventType::chTxEnd: return "ch.tx_end";
      case TraceEventType::chRxStart: return "ch.rx_start";
      case TraceEventType::chRxBit: return "ch.rx_bit";
      case TraceEventType::chRxEnd: return "ch.rx_end";
      case TraceEventType::chNack: return "ch.nack";
      case TraceEventType::chRetransmit: return "ch.retransmit";
      case TraceEventType::chPacketAccepted:
        return "ch.packet_accepted";
      case TraceEventType::chShareEstablished:
        return "ch.share_established";
      case TraceEventType::chSyncSlip: return "ch.sync_slip";
      case TraceEventType::chRetransmitExhausted:
        return "ch.retransmit_exhausted";
      case TraceEventType::chPhyPreambleLock:
        return "ch.phy_preamble_lock";
      case TraceEventType::chPhyHeaderBad: return "ch.phy_header_bad";
      case TraceEventType::chPhyFecCorrected:
        return "ch.phy_fec_corrected";
      case TraceEventType::chPhyFecBad: return "ch.phy_fec_bad";
      case TraceEventType::chPhyFrame: return "ch.phy_frame";
      case TraceEventType::numTypes: break;
    }
    return "?";
}

TraceEventType
traceTypeFromName(const char *name)
{
    for (int i = 0; i < static_cast<int>(TraceEventType::numTypes);
         ++i) {
        const auto t = static_cast<TraceEventType>(i);
        if (std::strcmp(name, traceTypeName(t)) == 0)
            return t;
    }
    return TraceEventType::numTypes;
}

TraceCategory
traceTypeCategory(TraceEventType t)
{
    switch (t) {
      case TraceEventType::memLoad:
      case TraceEventType::memStore:
      case TraceEventType::memFlush:
        return TraceCategory::mem;
      case TraceEventType::cohDowngrade:
      case TraceEventType::cohOwnerForward:
      case TraceEventType::cohUpgrade:
      case TraceEventType::cohWriteback:
      case TraceEventType::cohBackInvalidate:
        return TraceCategory::coherence;
      case TraceEventType::linkLlc:
      case TraceEventType::linkQpi:
      case TraceEventType::linkDram:
        return TraceCategory::link;
      case TraceEventType::osKsmScan:
      case TraceEventType::osKsmMerge:
      case TraceEventType::osKsmUnmerge:
      case TraceEventType::osCowFault:
      case TraceEventType::osMapShared:
        return TraceCategory::os;
      case TraceEventType::schedSwitch:
      case TraceEventType::schedPreempt:
      case TraceEventType::schedSleep:
        return TraceCategory::sched;
      default:
        return TraceCategory::channel;
    }
}

} // namespace csim
