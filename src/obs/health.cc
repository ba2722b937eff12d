#include "obs/health.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/memory_backend.hh"
#include "trace/bus.hh"

namespace csim
{

namespace
{

/** Band slot a load's ServedBy maps to; numBandSlots = none. */
std::size_t
bandSlotOf(ServedBy served)
{
    switch (served) {
      case ServedBy::localLlc:
        return comboIndex(Combo::localShared);
      case ServedBy::localOwner:
        return comboIndex(Combo::localExcl);
      case ServedBy::remoteLlc:
        return comboIndex(Combo::remoteShared);
      case ServedBy::remoteOwner:
        return comboIndex(Combo::remoteExcl);
      case ServedBy::dram:
        return dramBandSlot;
      default:
        // L1/L2 hits and no-data operations carry no band signal.
        return numBandSlots;
    }
}

} // namespace

const char *
bandSlotName(std::size_t slot)
{
    if (slot < static_cast<std::size_t>(numCombos))
        return comboName(static_cast<Combo>(slot));
    return slot == dramBandSlot ? "DRAM" : "?";
}

void
BandStats::merge(const BandStats &other)
{
    hist.merge(other.hist);
    outside += other.outside;
    if (!hasBand && other.hasBand) {
        hasBand = true;
        bandLo = other.bandLo;
        bandHi = other.bandHi;
    }
}

RunHealth::RunHealth(const ObsConfig &cfg)
    : config(cfg),
      bands(numBandSlots, BandStats(cfg.histSubBits)),
      series(cfg.windowCycles)
{
}

void
RunHealth::merge(const RunHealth &other)
{
    for (std::size_t i = 0; i < bands.size(); ++i)
        bands[i].merge(other.bands[i]);
    series.merge(other.series);
    budget.merge(other.budget);
    errors.insert(errors.end(), other.errors.begin(),
                  other.errors.end());
}

RunHealthMonitor::RunHealthMonitor(const ObsConfig &cfg)
    : cfg_(cfg), health_(cfg)
{
}

RunHealthMonitor::~RunHealthMonitor()
{
    detach();
}

void
RunHealthMonitor::setBands(const CalibrationResult &cal)
{
    for (Combo c : allCombos()) {
        setBand(comboIndex(c), cal.band(c).lo, cal.band(c).hi);
    }
    setBand(dramBandSlot, cal.dramBand.lo, cal.dramBand.hi);
}

void
RunHealthMonitor::setBand(std::size_t slot, double lo, double hi)
{
    BandStats &band = health_.bands.at(slot);
    band.hasBand = true;
    band.bandLo = lo;
    band.bandHi = hi;
}

void
RunHealthMonitor::attach(TraceBus &bus, int num_cores)
{
    (void)num_cores;  // streaming aggregation needs no per-core state
    detach();
    bus_ = &bus;
    subId_ = bus.subscribe(
        categoryBit(TraceCategory::mem) |
            categoryBit(TraceCategory::coherence) |
            categoryBit(TraceCategory::os) |
            categoryBit(TraceCategory::channel),
        [this](const TraceEvent &ev) { observe(ev); });
}

void
RunHealthMonitor::detach()
{
    if (bus_) {
        bus_->unsubscribe(subId_);
        bus_ = nullptr;
        subId_ = 0;
    }
}

void
RunHealthMonitor::observe(const TraceEvent &ev)
{
    // In a fleet, obs.pair narrows the channel-protocol streams to
    // one pair's channel; machine-level streams stay unfiltered.
    if (ev.category == TraceCategory::channel && cfg_.pair >= 0 &&
        ev.pair != static_cast<std::uint32_t>(cfg_.pair))
        return;
    WindowCounters &win = health_.series.at(ev.when);
    switch (ev.type) {
      case TraceEventType::memLoad: {
        ++win.loads;
        if (cfg_.bandCore >= 0 && ev.core != cfg_.bandCore)
            break;
        const std::size_t slot =
            bandSlotOf(static_cast<ServedBy>(ev.a));
        if (slot >= numBandSlots)
            break;
        BandStats &band = health_.bands[slot];
        band.hist.record(ev.b);
        if (band.hasBand) {
            const double lat = static_cast<double>(ev.b);
            if (lat < band.bandLo || lat > band.bandHi)
                ++band.outside;
        }
        break;
      }
      case TraceEventType::chTxBit:
        ++win.txBits;
        tx_.push_back({ev.when, static_cast<std::uint8_t>(ev.a)});
        break;
      case TraceEventType::chRxBit:
        ++win.rxBits;
        rx_.push_back({ev.when, static_cast<std::uint8_t>(ev.a)});
        break;
      case TraceEventType::chNack:
        ++win.nacks;
        break;
      case TraceEventType::chRetransmit:
        ++win.retransmits;
        break;
      case TraceEventType::chRetransmitExhausted:
        ++win.retransmitsExhausted;
        causes_.push_back(
            {ev.when, ErrorCause::retransmitExhausted});
        break;
      case TraceEventType::chSyncSlip:
        ++win.syncSlips;
        causes_.push_back({ev.when, ErrorCause::syncSlip});
        break;
      case TraceEventType::chPhyFecBad:
        // A detected-unrepairable PHY codeword: the residual bits it
        // leaves behind are charged to the FEC stage, not left
        // unattributed.
        causes_.push_back({ev.when, ErrorCause::fecUncorrectable});
        break;
      case TraceEventType::chShareEstablished:
        sharedPage_ = pageAlign(ev.addr);
        break;
      case TraceEventType::cohBackInvalidate:
        if (sharedPage_ != 0 &&
            pageAlign(ev.addr) == sharedPage_) {
            ++win.noiseEvictions;
            causes_.push_back(
                {ev.when, ErrorCause::noiseEviction});
        }
        break;
      case TraceEventType::osKsmMerge:
        ++win.ksmMerges;
        break;
      case TraceEventType::osKsmUnmerge:
        ++win.ksmUnmerges;
        if (sharedPage_ != 0 && pageAlign(ev.addr) == sharedPage_)
            causes_.push_back({ev.when, ErrorCause::syncSlip});
        break;
      case TraceEventType::osCowFault:
        ++win.cowFaults;
        if (sharedPage_ != 0 && pageAlign(ev.addr) == sharedPage_)
            causes_.push_back({ev.when, ErrorCause::syncSlip});
        break;
      default:
        break;
    }
}

RunHealth
RunHealthMonitor::finalize()
{
    detach();
    // Bus delivery follows virtual time, but offline replays may
    // interleave; the attribution engine needs sorted evidence.
    std::stable_sort(causes_.begin(), causes_.end(),
                     [](const CauseEvent &a, const CauseEvent &b) {
        return a.when < b.when;
    });
    health_.errors = attributeErrors(tx_, rx_, causes_,
                                     cfg_.windowCycles);
    health_.budget = budgetOf(health_.errors);
    for (const AttributedError &e : health_.errors)
        ++health_.series.at(e.when).bitErrors;
    tx_.clear();
    rx_.clear();
    causes_.clear();
    return std::move(health_);
}

RunHealth
analyzeTrace(const std::vector<TraceEvent> &events,
             const ObsConfig &cfg)
{
    RunHealthMonitor monitor(cfg);
    // The series is dense from cycle 0, so a trace's last cycle, not
    // its event count, sets what the replay allocates. Refuse a span
    // past the bound before allocating anything.
    Tick last = 0;
    for (const TraceEvent &ev : events)
        last = std::max(last, ev.when);
    const std::uint64_t windows = last / cfg.windowCycles + 1;
    fatal_if(windows > maxReplayWindows, "trace spans ", windows,
             " windows of ", cfg.windowCycles, " cycles (last event at "
             "cycle ", last, "); a replay holds at most ",
             maxReplayWindows, ": raise obs.window_cycles");
    for (const TraceEvent &ev : events)
        monitor.observe(ev);
    return monitor.finalize();
}

} // namespace csim
