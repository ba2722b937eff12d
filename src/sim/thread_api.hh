/**
 * @file
 * The instruction set available to simulated-thread coroutines.
 *
 * ThreadApi is a cheap value handle passed into every thread body.
 * Its methods return awaiters; `co_await api.load(addr)` yields the
 * observed latency in cycles, mirroring an rdtsc-timed load on real
 * hardware.
 */

#ifndef COHERSIM_SIM_THREAD_API_HH
#define COHERSIM_SIM_THREAD_API_HH

#include <coroutine>

#include "common/types.hh"
#include "sim/thread.hh"

namespace csim
{

class Scheduler;
class TraceBus;

/** Awaiter that parks a MemOp on the thread and yields its latency. */
struct OpAwaiter
{
    SimThread *thread;
    MemOp op;

    bool await_ready() const noexcept { return false; }
    void
    await_suspend(std::coroutine_handle<>) noexcept
    {
        thread->pending = op;
    }
    /** @return latency of the operation in cycles. */
    Tick await_resume() const noexcept { return thread->lastLatency; }
};

/**
 * Per-thread facade over the simulation engine.
 *
 * All members are awaitable except the queries (now(), core(), ...).
 */
class ThreadApi
{
  public:
    ThreadApi() = default;
    ThreadApi(SimThread *thread, Scheduler *sched)
        : thread_(thread), sched_(sched)
    {}

    /** Timed load of the line containing @p addr. */
    OpAwaiter
    load(VAddr addr) const
    {
        return {thread_, MemOp{MemOp::Kind::load, addr, 0}};
    }

    /** Store to the line containing @p addr. */
    OpAwaiter
    store(VAddr addr) const
    {
        return {thread_, MemOp{MemOp::Kind::store, addr, 0}};
    }

    /** clflush the line containing @p addr from every cache. */
    OpAwaiter
    flush(VAddr addr) const
    {
        return {thread_, MemOp{MemOp::Kind::flush, addr, 0}};
    }

    /** Busy-wait for @p cycles cycles. */
    OpAwaiter
    spin(Tick cycles) const
    {
        return {thread_, MemOp{MemOp::Kind::spin, 0, cycles}};
    }

    /** Busy-wait until the thread clock reaches @p tick. */
    OpAwaiter
    spinUntil(Tick tick) const
    {
        return {thread_, MemOp{MemOp::Kind::spinUntil, 0, tick}};
    }

    /**
     * Block for @p cycles without occupying the core (an I/O wait
     * or nanosleep); other threads pinned to the core may run.
     */
    OpAwaiter
    sleep(Tick cycles) const
    {
        return {thread_, MemOp{MemOp::Kind::sleep, 0, cycles}};
    }

    /**
     * Busy-wait in @p poll-cycle spins until Scheduler::unpark()
     * wakes the thread: an idle-poll loop the scheduler need not
     * step through poll by poll. Timing, clock and op count are
     * those of `spin(poll)` repeated until the wake, quantum
     * hand-overs on a shared core included; the caller re-checks
     * whatever it polls after each return, as after a spin. The
     * scheduler skips the polls only while every live thread on the
     * core waits on a park; otherwise each is one spin.
     */
    OpAwaiter
    park(Tick poll) const
    {
        return {thread_, MemOp{MemOp::Kind::park, 0, poll}};
    }

    /** rdtsc equivalent: the thread's current cycle count. */
    Tick now() const { return thread_->now; }

    /** Where the last load/store/flush was serviced from. */
    ServedBy lastServed() const { return thread_->lastServed; }

    ThreadId id() const { return thread_->id(); }
    CoreId core() const { return thread_->core(); }
    /** Covert-channel pair of this thread (0: not part of a pair). */
    std::uint32_t pairTag() const { return thread_->pairTag; }
    SimThread *thread() const { return thread_; }
    Scheduler *scheduler() const { return sched_; }

    /**
     * The machine's trace bus (nullptr when the scheduler is not
     * wired to one). Defined in scheduler.cc: this header only
     * forward-declares Scheduler.
     */
    TraceBus *traceBus() const;

  private:
    SimThread *thread_ = nullptr;
    Scheduler *sched_ = nullptr;
};

} // namespace csim

#endif // COHERSIM_SIM_THREAD_API_HH
