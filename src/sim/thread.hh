/**
 * @file
 * Simulated thread state: per-thread virtual clock, pending operation,
 * pinning, and the coroutine stack being executed.
 */

#ifndef COHERSIM_SIM_THREAD_HH
#define COHERSIM_SIM_THREAD_HH

#include <functional>
#include <string>

#include "common/types.hh"
#include "sim/memory_backend.hh"
#include "sim/task.hh"

namespace csim
{

class ThreadApi;

/** One operation a simulated thread has requested from the engine. */
struct MemOp
{
    enum class Kind
    {
        none,       //!< nothing pending (thread finished)
        load,       //!< timed load of a line
        store,      //!< store to a line
        flush,      //!< clflush of a line, system wide
        spin,       //!< burn a fixed number of cycles
        spinUntil,  //!< advance local clock to a target tick
        sleep,      //!< block without occupying the core
        park,       //!< spin repeated until woken (Scheduler::unpark)
    };

    Kind kind = Kind::none;
    VAddr addr = 0;    //!< target address for load/store/flush
    Tick cycles = 0;   //!< spin / park duration, spinUntil target
};

/**
 * A simulated software thread.
 *
 * Threads are created by Scheduler::spawn() and owned by the
 * Scheduler. Each thread carries its own virtual clock; the scheduler
 * interleaves threads by executing the globally earliest pending
 * operation.
 */
class SimThread
{
  public:
    SimThread(ThreadId id, std::string name, CoreId core,
              ProcessId pid);

    ThreadId id() const { return id_; }
    const std::string &name() const { return name_; }
    CoreId core() const { return core_; }
    ProcessId pid() const { return pid_; }

    /** Thread-local virtual clock (cycles). */
    Tick now = 0;
    /** Operation awaiting execution by the scheduler. */
    MemOp pending;
    /** Latency observed by the most recent operation. */
    Tick lastLatency = 0;
    /** Service source of the most recent load/store/flush. */
    ServedBy lastServed = ServedBy::none;
    /** Deepest active coroutine frame (top of the call stack). */
    std::coroutine_handle<> current = nullptr;
    /**
     * True when the pending operation has been executed and the
     * coroutine is waiting to be resumed at @ref now (the op's
     * completion time). Resumes run in global completion-time order
     * so shared C++ state written by coroutines stays consistent
     * with virtual time.
     */
    bool resumePending = false;
    /** Set once the top-level coroutine has completed. */
    bool finished = false;
    /**
     * True while the scheduler keeps this thread's core off its event
     * tree as a parked poll grid (see Scheduler::unpark). Until the
     * core is unparked, @ref now, @ref opsExecuted, @ref lastLatency
     * and the pending op hold their values from when it parked.
     */
    bool parked = false;
    /** Operations executed, for stats. */
    std::uint64_t opsExecuted = 0;
    /**
     * Covert-channel pair this thread belongs to; 0 when the thread
     * is not part of any pair. Fleet orchestration tags every
     * adversary thread (pairs are numbered from 1) so the trace
     * events it publishes carry the pair id.
     */
    std::uint32_t pairTag = 0;

    /**
     * Install the top-level coroutine body. The factory is moved
     * into the thread *before* being invoked and is never moved
     * again: the coroutine frame refers to the closure's captures,
     * so the closure must stay at a stable address for the thread's
     * lifetime.
     */
    void installBody(std::function<Task(ThreadApi)> factory,
                     const ThreadApi &api);

    /** Top-level task (for exception inspection). */
    Task &program() { return program_; }

  private:
    ThreadId id_;
    std::string name_;
    CoreId core_;
    ProcessId pid_;
    std::function<Task(ThreadApi)> factory_;
    Task program_;
};

} // namespace csim

#endif // COHERSIM_SIM_THREAD_HH
