#include "detect/cchunter.hh"

#include <cmath>

#include "common/logging.hh"

namespace csim
{

CoherenceChannelDetector::CoherenceChannelDetector(
    DetectorParams params)
    : params_(params)
{
    fatal_if(params_.minFlushes < 4,
             "detector needs a minimum train of >= 4 flushes");
    fatal_if(params_.historyCap < 8,
             "detector history must hold >= 8 intervals");
}

CoherenceChannelDetector::~CoherenceChannelDetector()
{
    detach();
}

void
CoherenceChannelDetector::attach(TraceBus &bus, int)
{
    detach();
    bus_ = &bus;
    // The optional trackers widen the subscription; by default the
    // mask is mem-only and the event stream (and eventsObserved())
    // is exactly the classic detector's.
    std::uint32_t mask = categoryBit(TraceCategory::mem);
    if (params_.trackEvictions)
        mask |= categoryBit(TraceCategory::coherence);
    if (params_.trackFaults)
        mask |= categoryBit(TraceCategory::os);
    subId_ = bus.subscribe(
        mask, [this](const TraceEvent &ev) { observe(ev); });
}

void
CoherenceChannelDetector::detach()
{
    if (bus_) {
        bus_->unsubscribe(subId_);
        bus_ = nullptr;
        subId_ = 0;
    }
}

double
CoherenceChannelDetector::intervalCv(const LineState &state)
{
    const auto &xs = state.intervals;
    if (xs.size() < 4)
        return 1e9;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    const double mean = sum / static_cast<double>(xs.size());
    if (mean <= 0.0)
        return 1e9;
    double acc = 0.0;
    for (double x : xs)
        acc += (x - mean) * (x - mean);
    const double sd =
        std::sqrt(acc / static_cast<double>(xs.size()));
    return sd / mean;
}

void
CoherenceChannelDetector::observe(const TraceEvent &ev)
{
    // Fires for every mem event — sample the wall-timing.
    SampledSpan prof(profCountdown_, "detect.observe");
    ++events_;
    if (ev.type == TraceEventType::memLoad ||
        ev.type == TraceEventType::memStore) {
        // Accesses between two flushes by a *different* core feed
        // the alternation score — only track lines already being
        // flushed (bounded state).
        const auto it = lines_.find(ev.addr);
        if (it != lines_.end() &&
            ev.core != it->second.lastFlusher) {
            it->second.otherCoreTouched = true;
        }
        // The aggregate monitor is address-blind: any access by a
        // core other than the last flusher (of *any* line) counts
        // as alternation of the combined train.
        if (ev.core != aggregate_.lastFlusher)
            aggregate_.otherCoreTouched = true;
        // Eviction trains score re-reference by *any* core instead:
        // the LRU spy both primes and probes the target line; the
        // trojan only ever touches its conflict set. The anomaly is
        // the line being re-fetched between periodic evictions.
        if (params_.trackEvictions) {
            const auto et = evictions_.find(evictionKey(ev.addr));
            if (et != evictions_.end())
                et->second.otherCoreTouched = true;
        }
        return;
    }

    if (ev.type == TraceEventType::memFlush) {
        LineState &state = lines_[ev.addr];
        feedEvent(state, ev);
        evaluate(state, ev.when, params_.minFlushes,
                 params_.maxIntervalCv, params_.minAlternation);
        // Feed the combined train too, but score it out of band:
        // the aggregate verdict models a monitor without per-line
        // state and must not feed anySuspicious()/
        // suspiciousLines(), whose false-positive guarantees are
        // per line.
        feedEvent(aggregate_, ev);
        evaluate(aggregate_, ev.when, params_.minFlushes,
                 params_.maxIntervalCv, params_.minAlternation,
                 /*count_flagged=*/false);
        return;
    }

    if (params_.trackEvictions &&
        ev.type == TraceEventType::cohBackInvalidate) {
        LineState &state = evictions_[evictionKey(ev.addr)];
        feedEvent(state, ev);
        evaluate(state, ev.when, params_.minEvictions,
                 params_.maxEvictionCv, params_.minAlternation);
        return;
    }

    if (params_.trackFaults &&
        ev.type == TraceEventType::osCowFault) {
        // osCowFault: a = faulting pid. No per-address access
        // stream exists to measure alternation against (the split
        // retires the old mapping), so fault trains score on
        // periodicity and length alone. Re-fault bursts (a scan
        // racing the faulting store) collapse onto the first fault.
        LineState &state = faults_[ev.a];
        if (state.lastFlushAt != 0 &&
            ev.when - state.lastFlushAt <= params_.faultCoalesce) {
            return;
        }
        feedEvent(state, ev);
        evaluate(state, ev.when, params_.minFaults,
                 params_.maxFaultCv, /*min_alternation=*/-1.0);
        return;
    }
}

void
CoherenceChannelDetector::feedEvent(LineState &state,
                                    const TraceEvent &ev)
{
    if (state.lastFlushAt != 0) {
        const Tick gap = ev.when - state.lastFlushAt;
        if (gap > params_.maxGap) {
            // A pause ends the train; restart measurement.
            state.flushes = 0;
            state.alternations = 0;
            state.intervals.clear();
            state.intervalPos = 0;
        } else {
            if (state.intervals.size() < params_.historyCap) {
                state.intervals.push_back(
                    static_cast<double>(gap));
            } else {
                state.intervals[state.intervalPos] =
                    static_cast<double>(gap);
                state.intervalPos = (state.intervalPos + 1) %
                                    params_.historyCap;
            }
            if (state.otherCoreTouched)
                ++state.alternations;
        }
    }
    state.lastFlushAt = ev.when;
    state.lastFlusher = ev.core;
    state.otherCoreTouched = false;
    ++state.flushes;
}

void
CoherenceChannelDetector::evaluate(LineState &state, Tick when,
                                   std::uint64_t min_events,
                                   double max_cv,
                                   double min_alternation,
                                   bool count_flagged)
{
    if (state.suspicious || state.flushes < min_events)
        return;
    const double cv = intervalCv(state);
    const double alternation =
        state.flushes > 1
            ? static_cast<double>(state.alternations) /
                  static_cast<double>(state.flushes - 1)
            : 0.0;
    if (cv <= max_cv &&
        (min_alternation < 0.0 ||
         alternation >= min_alternation)) {
        state.suspicious = true;
        state.flaggedAt = when;
        if (count_flagged)
            ++flagged_;
    }
}

std::vector<LineVerdict>
CoherenceChannelDetector::suspiciousLines() const
{
    ScopedSpan span("detect.score");
    std::vector<LineVerdict> out;
    for (const auto &[line, state] : lines_) {
        if (state.suspicious)
            out.push_back(verdict(line));
    }
    return out;
}

LineVerdict
CoherenceChannelDetector::verdictOf(const LineState &state,
                                    PAddr line)
{
    LineVerdict v;
    v.line = line;
    v.suspicious = state.suspicious;
    v.flushes = state.flushes;
    v.intervalCv = intervalCv(state);
    v.alternation =
        state.flushes > 1
            ? static_cast<double>(state.alternations) /
                  static_cast<double>(state.flushes - 1)
            : 0.0;
    v.flaggedAt = state.flaggedAt;
    return v;
}

LineVerdict
CoherenceChannelDetector::verdict(PAddr line) const
{
    const auto it = lines_.find(line);
    if (it == lines_.end()) {
        LineVerdict v;
        v.line = line;
        return v;
    }
    return verdictOf(it->second, line);
}

std::vector<LineVerdict>
CoherenceChannelDetector::suspiciousFaultPids() const
{
    std::vector<LineVerdict> out;
    for (const auto &[pid, state] : faults_) {
        if (state.suspicious)
            out.push_back(verdictOf(state, pid));
    }
    return out;
}

PAddr
CoherenceChannelDetector::evictionKey(PAddr addr) const
{
    const PAddr line = lineAlign(addr);
    return params_.evictionFoldBytes
               ? line % params_.evictionFoldBytes
               : line;
}

LineVerdict
CoherenceChannelDetector::evictionVerdict(PAddr line) const
{
    const PAddr key = evictionKey(line);
    const auto it = evictions_.find(key);
    if (it == evictions_.end()) {
        LineVerdict v;
        v.line = key;
        return v;
    }
    return verdictOf(it->second, key);
}

LineVerdict
CoherenceChannelDetector::aggregateVerdict() const
{
    ScopedSpan span("detect.score");
    return verdictOf(aggregate_, 0);
}

} // namespace csim
