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
 * A core whose live threads all wait on parks leaves the tree as a
 * whole when one of them executes its park: its polls only move its
 * own threads' clocks and its own occupancy, so the scheduler keeps
 * the core's poll grid instead. Alone on the core, the parked thread
 * polls forever. With waiters, it polls out its quantum, and after
 * the switch penalty the lowest-id waiter takes the core; from then
 * on the two lowest ids alternate, each polling
 * ⌊quantum/poll⌋ + 1 times per turn. The scheduler replays the grid
 * arithmetically when one of the core's threads is woken (unpark()),
 * when a thread is spawned onto the core, or when a run stops. A core
 * stays on the tree while a sched-category subscriber listens (its
 * switch and preempt events keep their order on the bus) and where
 * the turns have no closed form (a zero switch penalty hands the
 * core to the lower id at every poll).
 *
 * Where another thread on the core does not wait on a park (a noise
 * agent, busy or asleep), only the parked thread's turn is known, and
 * it becomes one event: the remaining ⌊(quantum − held)/poll⌋ + 1
 * polls, with the thread and core left as the last poll leaves them
 * and the thread's resume at the turn's end on the tree. No other
 * thread can take the core sooner, since every other issue key
 * carries the switch penalty past freeAt, and resumes need no core.
 * The turn is rewound to the poll boundary polling would have
 * reached when its thread is woken, a thread is spawned onto the
 * core or one there finishes, or a run stops inside it.
 */

#ifndef COHERSIM_SIM_SCHEDULER_HH
#define COHERSIM_SIM_SCHEDULER_HH

#include <array>
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
     * Wake @p t if its core is parked: give every thread on the core
     * exactly the clock, op count and next event, and the core
     * exactly the occupancy and quantum state, that poll-by-poll
     * spins would have at the event being processed; then let them
     * poll normally. If @p t has issued a park which has not yet
     * executed, it spins once instead. A no-op for any other thread.
     * Whoever changes what a parked thread polls must call this, or
     * the thread never sees the change.
     */
    void unpark(SimThread &t);

    /**
     * True while @p core's polls are off the event tree: the core is
     * parked, or an idle loader polls out its turn there as one
     * event.
     */
    bool
    offTree(CoreId core) const
    {
        return cores_[static_cast<std::size_t>(core)].parked;
    }

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
    /** One thread that polls on a parked core, and how often. */
    struct GridPoller
    {
        SimThread *thread = nullptr;
        Tick poll = 0;
        /** Polls per turn: it then has to yield the core. */
        Tick polls = 0;
    };

    /**
     * A parked core's poll grid. Turn 0 is the park that parked the
     * core, issued at @ref start, and the holder's polls after it;
     * turns 1, 3, ... and 2, 4, ... belong to the two alternating
     * waiters, each starting a switch penalty after the previous
     * turn's last poll. A turn's poll i is an issue at
     * start + i·poll and a resume one poll later.
     */
    struct Grid
    {
        /** [0] the holder (polls left in turn 0; endless when the
         *  core has no waiter), [1] and [2] the alternating waiters. */
        std::array<GridPoller, 3> pollers{};
        Tick start = 0;
        Tick acquiredAt = 0;  //!< when the holder got the core
        Tick period = 0;      //!< turns 1 and 2 with their switch-ins
    };

    /** One turn of a grid. */
    struct Turn
    {
        const GridPoller *poller;
        Tick start;       //!< issue of its first poll
        Tick acquiredAt;  //!< when its thread got the core
    };

    /** A point in a grid: @ref ran events of turn @ref turn ran. */
    struct GridPos
    {
        Tick turn;
        Tick ran;
    };

    struct CoreState
    {
        Tick freeAt = 0;          //!< core busy until this tick
        ThreadId lastThread = invalidThread;
        Tick acquiredAt = 0;      //!< when lastThread got the core
        bool mustYield = false;   //!< quantum expired, switch next
        /** Unfinished threads pinned here, in spawn order. */
        std::vector<ThreadId> live;
        /** Valid while parked: every live thread is off the tree,
         *  or only the holder's polls are (see batchTurn()). */
        Grid grid;
        bool parked = false;
        bool batched = false;  //!< parked as the holder's turn alone
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
     * past @p until is a parked core's poll or switch-in: with
     * polling threads the run would have stopped right after it.
     */
    bool stopAtParkedPoll(Tick until);

    /**
     * Take @p t's core off the tree after @p t's park executed, if
     * every other live thread there waits on a park it has issued
     * and the grid has a closed form; else batch @p t's turn.
     * @return whether the core parked or the turn batched.
     */
    bool park(SimThread &t);

    /**
     * Take the rest of @p t's turn, its grid's turn 0, as one event:
     * give @p t and its core the state the turn's last poll leaves
     * and key @p t's resume at the turn's end. @return false where
     * the park is the turn's only poll.
     */
    bool batchTurn(SimThread &t);

    /** Mark @p t's core parked, its grid starting at @p t's park;
     *  @p batched when only @p t's turn is off the tree. */
    void parkCore(const SimThread &t, bool batched);

    /** Turn @p k of @p core's grid. */
    Turn turn(const CoreState &core, Tick k) const;

    /**
     * Where @p core's grid stands once every event up to
     * (@p key, @p tid) has run: the first turn not run to its end.
     */
    GridPos gridPos(const CoreState &core, std::uint64_t key,
                    ThreadId tid) const;

    /** Give a turn's thread and core their state after its first
     *  @p ran events. */
    void replayTurn(CoreState &core, const Turn &turn, Tick ran);

    /**
     * Replay parked @p core's grid up to the largest event picked so
     * far and put its threads' next events back on the tree.
     */
    void materialise(CoreId core);

    /** Unpark every parked core (a run returns with none). */
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
    /** Parked cores, in the order they parked. */
    std::vector<CoreId> parked_;
    /**
     * The largest (key, thread id) picked since the first of the
     * parked cores parked. With polling threads, a grid event ran
     * before the current event exactly when it sorts before this:
     * picks are in key order except that an event may be keyed at
     * the current tick with a lower thread id after a higher one
     * ran.
     */
    std::uint64_t pickedKey_ = 0;
    ThreadId pickedTid_ = 0;
};

} // namespace csim

#endif // COHERSIM_SIM_SCHEDULER_HH
