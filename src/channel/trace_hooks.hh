/**
 * @file
 * One-line trace publishing for attack coroutines.
 *
 * Trojan/spy bodies run as simulated threads and reach the machine's
 * trace bus through their ThreadApi; this helper stamps the event
 * with the thread's core and current virtual time so call sites stay
 * a single line inside the protocol code.
 */

#ifndef COHERSIM_CHANNEL_TRACE_HOOKS_HH
#define COHERSIM_CHANNEL_TRACE_HOOKS_HH

#include "sim/thread_api.hh"
#include "trace/bus.hh"

namespace csim
{

/** Publish a channel-category event from a simulated thread. */
inline void
chEvent(const ThreadApi &api, TraceEventType type,
        std::uint64_t a = 0, std::uint64_t b = 0, PAddr addr = 0)
{
    TraceBus *bus = api.traceBus();
    if (bus && bus->enabled(TraceCategory::channel)) {
        bus->publish(TraceEvent{type, TraceCategory::channel,
                                api.core(), api.now(), addr, a, b,
                                api.pairTag()});
    }
}

} // namespace csim

#endif // COHERSIM_CHANNEL_TRACE_HOOKS_HH
