#include "trace/recorder.hh"

#include <algorithm>

#include "common/logging.hh"

namespace csim
{

TraceRecorder::~TraceRecorder()
{
    detach();
}

void
TraceRecorder::attach(TraceBus &bus, int num_cores)
{
    fatal_if(num_cores < 1, "recorder needs at least one core");
    detach();
    events_.clear();
    numCores_ = num_cores;
    bus_ = &bus;
    subId_ = bus.subscribe(allTraceCategories,
                           [this](const TraceEvent &ev) {
        events_.push_back(ev);
    });
}

void
TraceRecorder::detach()
{
    if (bus_) {
        bus_->unsubscribe(subId_);
        bus_ = nullptr;
        subId_ = 0;
    }
}

std::vector<TraceEvent>
TraceRecorder::drain()
{
    // Same-time events go core by core, then coreless: a coreless or
    // out-of-range core sorts after every real one.
    const auto key = [n = numCores_](const TraceEvent &ev) {
        return ev.core >= 0 && ev.core < n ? ev.core : n;
    };
    std::stable_sort(events_.begin(), events_.end(),
                     [&key](const TraceEvent &x, const TraceEvent &y) {
        if (x.when != y.when)
            return x.when < y.when;
        return key(x) < key(y);
    });
    std::vector<TraceEvent> out = std::move(events_);
    events_.clear();
    return out;
}

} // namespace csim
