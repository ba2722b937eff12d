/**
 * @file
 * Deterministic virtual-time thread scheduler.
 *
 * The engine is a conservative sequential parallel-discrete-event
 * simulator: every simulated thread carries its own cycle clock, and
 * the scheduler always executes the globally earliest pending
 * operation, so shared coherence state mutates in correct virtual-time
 * order. Cores are modelled as serially reusable resources with an
 * optional context-switch penalty and a preemption quantum so
 * oversubscribed cores (the noise experiments) time-share fairly.
 *
 * Each thread's next event is cached as one key in an EventTree, so
 * picking the next event is a root read and only the keys an event
 * invalidates are recomputed (see eventKey()).
 *
 * A thread alone on its core that executes a park leaves the tree:
 * its polls would only move its own clock, so the scheduler keeps
 * the poll grid instead and replays it arithmetically when the
 * thread is woken (unpark()), when a thread is spawned onto its
 * core, or when a run stops.
 */

#ifndef COHERSIM_SIM_SCHEDULER_HH
#define COHERSIM_SIM_SCHEDULER_HH

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/types.hh"
#include "sim/event_tree.hh"
#include "sim/memory_backend.hh"
#include "sim/task.hh"
#include "sim/thread.hh"
#include "sim/thread_api.hh"
#include "trace/bus.hh"

namespace csim
{

/** Tunables for the execution engine. */
struct SchedulerParams
{
    /** Cycles charged when a core switches between threads. */
    Tick contextSwitchPenalty = 500;
    /** Max cycles a thread may hold a contested core (~1us at
     *  2.67 GHz, modelling a preemptive scheduler's granularity). */
    Tick quantum = 3'000;
};

/**
 * Owns all simulated threads and drives them in virtual-time order.
 */
class Scheduler
{
  public:
    /**
     * @param backend memory system handling load/store/flush.
     * @param num_cores number of cores in the machine.
     */
    Scheduler(MemoryBackend *backend, int num_cores,
              SchedulerParams params = {});
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /**
     * Create a simulated thread pinned to a core.
     *
     * @param name debug name.
     * @param core core to pin to (sched_setaffinity equivalent).
     * @param pid owning simulated process.
     * @param body factory invoked with the thread's api to produce
     *             its coroutine.
     * @return non-owning pointer, valid for the scheduler's lifetime.
     */
    SimThread *spawn(const std::string &name, CoreId core,
                     ProcessId pid,
                     std::function<Task(ThreadApi)> body);

    /**
     * Execute pending operations in virtual-time order.
     *
     * Stops when all threads finished or when the global clock
     * passes @p until, at the same event as if parked threads
     * polled; it unparks them on return.
     */
    void run(Tick until = maxTick);

    /**
     * Like run(), but also stops as soon as the last of @p threads
     * has finished (checked between operations); other threads may
     * still be running then.
     */
    void runUntilFinished(std::span<const SimThread *const> threads,
                          Tick until = maxTick);

    /** Convenience: run until the given thread's coroutine returns. */
    void
    runUntilFinished(const SimThread *thread, Tick until = maxTick)
    {
        runUntilFinished({&thread, 1}, until);
    }

    /** Execute exactly one pending operation. @return false if idle. */
    bool stepOne();

    /**
     * Wake @p t if it is parked: give it exactly the clock, op
     * count, core occupancy and next event its poll-by-poll spins
     * would have at the event being processed, then let it poll
     * normally. A thread that has issued a park which has not yet
     * executed spins once instead of parking. A no-op for any other
     * thread. Whoever changes what a parked thread polls must call
     * this, or the thread never sees the change.
     */
    void unpark(SimThread &t);

    /** Global clock: start time of the most recent operation. */
    Tick now() const { return globalNow_; }

    /** All threads spawned so far. */
    const std::vector<std::unique_ptr<SimThread>> &
    threads() const
    {
        return threads_;
    }

    int numCores() const { return static_cast<int>(cores_.size()); }

    /** True when every spawned thread has completed. */
    bool allFinished() const;

    /**
     * Publish sched.* events into @p bus (the machine-wide trace
     * bus; Machine wires this up). nullptr disables sched tracing.
     */
    void setTraceBus(TraceBus *bus) { trace_ = bus; }

    /** The trace bus this scheduler publishes into, if any. */
    TraceBus *traceBus() const { return trace_; }

  private:
    struct CoreState
    {
        Tick freeAt = 0;          //!< core busy until this tick
        ThreadId lastThread = invalidThread;
        Tick acquiredAt = 0;      //!< when lastThread got the core
        bool mustYield = false;   //!< quantum expired, switch next
        /** Unfinished threads pinned here, in spawn order. */
        std::vector<ThreadId> live;
    };

    /** Earliest tick at which @p t's pending op could start. */
    Tick effectiveStart(const SimThread &t) const;

    /**
     * @p t's next event as one ordered key: (time << 1 | is_issue),
     * so events run by time, a resume (at its op's completion time)
     * before an issue (at its op's start time) at equal times, and
     * the lower thread id first at equal keys (the tree's tie rule).
     * EventTree::none when @p t is finished, has nothing pending, or
     * must let another unfinished thread have its core (quantum
     * expired and it was the last to run there).
     *
     * The key reads @p t's clock and pending op and its core's
     * freeAt / lastThread / mustYield / live, so it is recomputed
     * after @p t's own execute or resume, after an execute or sleep
     * on its core, a spawn or finish on its core, and the all-yield
     * fallback in pickNext().
     */
    std::uint64_t eventKey(const SimThread &t) const;

    /** eventKey() of an unfinished thread with an op to issue. */
    std::uint64_t issueKey(const SimThread &t) const;

    /** Recompute @p t's cached event key. */
    void refresh(const SimThread &t);

    /** Recompute the keys of every unfinished thread on @p core. */
    void refreshCore(CoreId core);

    /** Pick the next thread to execute, or nullptr if all idle. */
    SimThread *pickNext();

    /**
     * One step of a run bounded by @p until: stop (false) where a
     * parked thread's poll would have ended the run, else execute or
     * resume the next thread (false if all idle). Threads may be
     * left parked.
     */
    bool step(Tick until);

    /**
     * True, with the clock moved there, when the first event at or
     * past @p until is a parked thread's poll: with polling threads
     * the run would have stopped right after it.
     */
    bool stopAtParkedPoll(Tick until);

    /**
     * Take @p t off the tree as a parked poller after its park
     * executed: its polls run at now + k·lastLatency, k >= 0.
     */
    void park(SimThread &t);

    /**
     * Replay parked @p t's polls up to the largest event picked so
     * far and put its next event back on the tree.
     */
    void materialise(SimThread &t);

    /** Unpark every parked thread (a run returns with none). */
    void unparkAll();

    /**
     * Execute the pending op of @p t (memory mutations apply at the
     * op's start time) and arm its resume at the completion time.
     */
    void execute(SimThread &t);

    /** Resume @p t's coroutine at its op's completion time. */
    void resume(SimThread &t);

    /** True if an unfinished thread other than @p t (itself
     *  unfinished) is pinned to @p t's core. */
    bool hasWaiter(const SimThread &t) const;

    MemoryBackend *backend_;
    SchedulerParams params_;
    std::vector<CoreState> cores_;
    std::vector<std::unique_ptr<SimThread>> threads_;
    Tick globalNow_ = 0;
    TraceBus *trace_ = nullptr;
    /** Cached event key per thread id. */
    EventTree events_;
    /** Parked threads, in the order they parked. */
    std::vector<SimThread *> parked_;
    /**
     * The largest (key, thread id) picked since the first of the
     * parked threads parked. With polling threads, a parked thread's
     * poll ran before the current event exactly when it sorts before
     * this: picks are in key order except that an event may be keyed
     * at the current tick with a lower thread id after a higher one
     * ran.
     */
    std::uint64_t pickedKey_ = 0;
    ThreadId pickedTid_ = 0;
};

} // namespace csim

#endif // COHERSIM_SIM_SCHEDULER_HH
