/**
 * @file
 * Trace recorder: a bus subscriber that captures every event into one
 * growable buffer for later export.
 *
 * The buffer never drops: a capture holds every event the bus
 * published while the recorder was attached. drain() stable-sorts it
 * by virtual time; events carrying the same timestamp are ordered by
 * core index, then coreless (KSM scans, out-of-range cores), then
 * publish order, so a drained trace is deterministic.
 *
 * Thread model: the recorder is filled and drained by one host thread
 * at a time. `cohersim profile` fills it on a runJobs() worker and
 * drains it on the main thread after the join; the join is the only
 * hand-off it needs.
 */

#ifndef COHERSIM_TRACE_RECORDER_HH
#define COHERSIM_TRACE_RECORDER_HH

#include <vector>

#include "trace/bus.hh"
#include "trace/event.hh"
#include "trace/tap.hh"

namespace csim
{

/** Captures every bus event into one buffer. */
class TraceRecorder : public BusTap
{
  public:
    TraceRecorder() = default;
    ~TraceRecorder() override;

    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    /**
     * Subscribe to @p bus, recording events from @p num_cores cores.
     * Detaches from any previously attached bus and discards what it
     * captured there.
     */
    void attach(TraceBus &bus, int num_cores) override;

    /** Unsubscribe; captured events stay drainable. */
    void detach() override;

    /** Whether currently subscribed to a bus. */
    bool attached() const { return bus_ != nullptr; }

    /**
     * Hand over everything captured so far, sorted by virtual time,
     * and start an empty buffer.
     */
    std::vector<TraceEvent> drain();

  private:
    TraceBus *bus_ = nullptr;
    int subId_ = 0;
    int numCores_ = 0;
    std::vector<TraceEvent> events_;
};

} // namespace csim

#endif // COHERSIM_TRACE_RECORDER_HH
