/**
 * @file
 * Multi-subscriber trace event bus.
 *
 * Replaces the old single-consumer MemorySystem::eventHook: any
 * number of subscribers (detectors, recorders, test probes) attach
 * with a category mask, and publishers pay one mask test per site
 * while nobody is listening. Every simulator component of a Machine
 * publishes into the same bus instance (owned by the MemorySystem),
 * so one subscription observes the whole machine.
 *
 * Thread model: a bus belongs to one Machine and is published to and
 * (un)subscribed from only on the host thread simulating that
 * machine, exactly like the rest of the simulator state. A subscriber
 * read from another host thread (a TraceRecorder drained after a
 * runJobs() join) needs that join, or another hand-off that orders
 * the two threads, and nothing more.
 */

#ifndef COHERSIM_TRACE_BUS_HH
#define COHERSIM_TRACE_BUS_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "trace/event.hh"

namespace csim
{

/** The event bus. Cheap to own; costs one branch when silent. */
class TraceBus
{
  public:
    using Handler = std::function<void(const TraceEvent &)>;

    TraceBus() = default;
    TraceBus(const TraceBus &) = delete;
    TraceBus &operator=(const TraceBus &) = delete;

    /**
     * Attach @p handler for every category in @p category_mask.
     * @return a subscription id for unsubscribe().
     */
    int subscribe(std::uint32_t category_mask, Handler handler);

    /** Detach a subscription; unknown ids are ignored. */
    void unsubscribe(int id);

    /** Number of live subscriptions. */
    std::size_t subscriberCount() const { return subs_.size(); }

    /**
     * Whether publishing category @p c can reach anyone. Publish
     * sites guard on this so event construction is skipped while
     * nobody listens.
     */
    bool
    enabled(TraceCategory c) const
    {
        return (liveMask_ & categoryBit(c)) != 0;
    }

    /** Deliver @p ev to every subscriber listening to its category. */
    void
    publish(const TraceEvent &ev) const
    {
        const std::uint32_t bit = categoryBit(ev.category);
        // One branch when the category has no audience: publish
        // sites that do not guard with enabled() (events built
        // unconditionally) still cost nearly nothing while nobody
        // listens.
        if ((liveMask_ & bit) == 0)
            return;
        ++published_;
        for (const Sub &s : subs_) {
            if (s.mask & bit)
                s.handler(ev);
        }
    }

    /** Total events delivered to at least one subscriber. */
    std::uint64_t published() const { return published_; }

  private:
    struct Sub
    {
        int id;
        std::uint32_t mask;
        Handler handler;
    };

    std::vector<Sub> subs_;
    std::uint32_t liveMask_ = 0;  //!< OR of subscriber masks
    int nextId_ = 1;
    mutable std::uint64_t published_ = 0;
};

} // namespace csim

#endif // COHERSIM_TRACE_BUS_HH
