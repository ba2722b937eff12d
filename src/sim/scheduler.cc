#include "sim/scheduler.hh"

#include <algorithm>

#include "common/logging.hh"

namespace csim
{

namespace
{

/** Largest event time whose packed key (time << 1 | is_issue) stays
 *  below EventTree::none. */
constexpr Tick maxEventTime = (Tick{1} << 63) - 2;

/** Out of line, so packKey() stays small enough to inline on the
 *  per-step paths. */
[[noreturn]] void
eventBeyondRange(const SimThread &t, Tick time)
{
    panic("thread ", t.name(), " has an event at tick ", time,
          "; event times must stay below 2^63 - 1");
}

/** Pack an event of @p t into an EventTree key: time, then kind. */
std::uint64_t
packKey(const SimThread &t, Tick time, std::uint64_t is_issue)
{
    if (time > maxEventTime) [[unlikely]]
        eventBeyondRange(t, time);
    return time << 1 | is_issue;
}

} // namespace

Scheduler::Scheduler(MemoryBackend *backend, int num_cores,
                     SchedulerParams params)
    : backend_(backend), params_(params)
{
    fatal_if(num_cores <= 0, "scheduler needs at least one core");
    fatal_if(!backend, "scheduler needs a memory backend");
    cores_.resize(static_cast<std::size_t>(num_cores));
}

Scheduler::~Scheduler() = default;

SimThread *
Scheduler::spawn(const std::string &name, CoreId core, ProcessId pid,
                 std::function<Task(ThreadApi)> body)
{
    fatal_if(core < 0 || core >= numCores(),
             "thread ", name, " pinned to invalid core ", core);
    const auto tid = static_cast<ThreadId>(threads_.size());
    auto thread = std::make_unique<SimThread>(tid, name, core, pid);
    // Threads spawned mid-simulation start at the current global time.
    thread->now = globalNow_;
    ThreadApi api(thread.get(), this);
    thread->installBody(std::move(body), api);
    threads_.push_back(std::move(thread));
    // The new thread's first event, and the core's last thread may
    // now have a waiter to yield to.
    cores_[static_cast<std::size_t>(core)].live.push_back(tid);
    refreshCore(core);
    return threads_.back().get();
}

bool
Scheduler::allFinished() const
{
    return std::all_of(threads_.begin(), threads_.end(),
                       [](const auto &t) { return t->finished; });
}

bool
Scheduler::hasWaiter(const SimThread &t) const
{
    return cores_[static_cast<std::size_t>(t.core())].live.size() > 1;
}

Tick
Scheduler::effectiveStart(const SimThread &t) const
{
    const auto &core = cores_[static_cast<std::size_t>(t.core())];
    Tick start = std::max(t.now, core.freeAt);
    if (core.lastThread != t.id() &&
        core.lastThread != invalidThread) {
        start += params_.contextSwitchPenalty;
    }
    return start;
}

std::uint64_t
Scheduler::eventKey(const SimThread &t) const
{
    // Resumes run first at equal times so shared state written by a
    // coroutine at virtual time T is visible to every operation
    // issued at or after T.
    if (t.finished)
        return EventTree::none;
    if (t.resumePending)
        return packKey(t, t.now, 0);
    if (t.pending.kind != MemOp::Kind::none)
        return issueKey(t);
    return EventTree::none;
}

std::uint64_t
Scheduler::issueKey(const SimThread &t) const
{
    const auto &core = cores_[static_cast<std::size_t>(t.core())];
    if (core.mustYield && core.lastThread == t.id() && hasWaiter(t))
        return EventTree::none;
    return packKey(t, effectiveStart(t), 1);
}

void
Scheduler::refresh(const SimThread &t)
{
    events_.set(t.id(), eventKey(t));
}

void
Scheduler::refreshCore(CoreId core)
{
    for (ThreadId tid : cores_[static_cast<std::size_t>(core)].live)
        refresh(*threads_[static_cast<std::size_t>(tid)]);
}

SimThread *
Scheduler::pickNext()
{
    int next = events_.next();
    if (next < 0) {
        // Everyone skipped for quantum reasons: clear yield flags and
        // rekey so we never deadlock.
        bool any_yield = false;
        for (auto &c : cores_) {
            any_yield = any_yield || c.mustYield;
            c.mustYield = false;
        }
        if (!any_yield)
            return nullptr;
        for (const auto &t : threads_)
            refresh(*t);
        next = events_.next();
        if (next < 0)
            return nullptr;
    }
    return threads_[static_cast<std::size_t>(next)].get();
}

void
Scheduler::resume(SimThread &t)
{
    globalNow_ = std::max(globalNow_, t.now);
    t.resumePending = false;
    panic_if(!t.current, "thread ", t.name(),
             " has no coroutine frame to resume");
    t.current.resume();
    events_.set(t.id(), t.finished ? EventTree::none : issueKey(t));

    if (t.finished) {
        // The core's last thread may have lost its only waiter.
        auto &live = cores_[static_cast<std::size_t>(t.core())].live;
        std::erase(live, t.id());
        refreshCore(t.core());
        auto h = t.program().handle();
        if (h && h.promise().exception)
            std::rethrow_exception(h.promise().exception);
    } else {
        panic_if(t.pending.kind == MemOp::Kind::none,
                 "thread ", t.name(),
                 " suspended without a pending operation");
    }
}

void
Scheduler::execute(SimThread &t)
{
    auto &core = cores_[static_cast<std::size_t>(t.core())];
    if (t.pending.kind == MemOp::Kind::sleep) {
        // Sleeping releases the core: no occupancy, no switch cost.
        const Tick start = t.now;
        globalNow_ = std::max(globalNow_, start);
        t.lastLatency = t.pending.cycles;
        t.now = start + t.pending.cycles;
        t.pending = MemOp{};
        ++t.opsExecuted;
        t.resumePending = true;
        if (core.lastThread == t.id()) {
            core.lastThread = invalidThread;
            refreshCore(t.core());
        } else {
            refresh(t);
        }
        if (trace_ && trace_->enabled<TraceCategory::sched>()) {
            trace_->publish(TraceEvent{
                TraceEventType::schedSleep, TraceCategory::sched,
                t.core(), start, 0,
                static_cast<std::uint64_t>(t.id()), t.lastLatency});
        }
        return;
    }
    const Tick start = effectiveStart(t);
    if (core.lastThread != t.id()) {
        if (core.lastThread != invalidThread && trace_ &&
            trace_->enabled<TraceCategory::sched>()) {
            trace_->publish(TraceEvent{
                TraceEventType::schedSwitch, TraceCategory::sched,
                t.core(), start, 0,
                static_cast<std::uint64_t>(core.lastThread),
                static_cast<std::uint64_t>(t.id())});
        }
        core.lastThread = t.id();
        core.acquiredAt = start;
        core.mustYield = false;
    }

    const MemOp op = t.pending;
    t.pending = MemOp{};
    globalNow_ = std::max(globalNow_, start);

    AccessResult res;
    switch (op.kind) {
      case MemOp::Kind::load:
        res = backend_->load(t.id(), t.core(), op.addr, start);
        break;
      case MemOp::Kind::store:
        res = backend_->store(t.id(), t.core(), op.addr, start);
        break;
      case MemOp::Kind::flush:
        res = backend_->flush(t.id(), t.core(), op.addr, start);
        break;
      case MemOp::Kind::spin:
        res.latency = op.cycles;
        break;
      case MemOp::Kind::spinUntil:
        res.latency = op.cycles > start ? op.cycles - start : 0;
        break;
      case MemOp::Kind::sleep:
        panic("sleep handled before core accounting");
      case MemOp::Kind::none:
        panic("executing thread ", t.name(), " with no pending op");
    }

    t.lastLatency = res.latency;
    if (op.kind == MemOp::Kind::load ||
        op.kind == MemOp::Kind::store ||
        op.kind == MemOp::Kind::flush) {
        t.lastServed = res.servedBy;
    }
    t.now = start + res.latency;
    ++t.opsExecuted;
    core.freeAt = t.now;
    if (t.now - core.acquiredAt > params_.quantum && hasWaiter(t)) {
        core.mustYield = true;
        if (trace_ && trace_->enabled<TraceCategory::sched>()) {
            trace_->publish(TraceEvent{
                TraceEventType::schedPreempt, TraceCategory::sched,
                t.core(), t.now, 0,
                static_cast<std::uint64_t>(t.id()), 0});
        }
    }
    // The coroutine resumes when the operation completes, in global
    // completion-time order (see eventKey).
    t.resumePending = true;
    // The core's other threads start after freeAt, which just moved.
    if (hasWaiter(t))
        refreshCore(t.core());
    else
        events_.set(t.id(), packKey(t, t.now, 0));
}

bool
Scheduler::stepOne()
{
    SimThread *t = pickNext();
    if (!t)
        return false;
    if (t->resumePending)
        resume(*t);
    else
        execute(*t);
    return true;
}

void
Scheduler::run(Tick until, const std::function<bool()> &stop_when)
{
    while (globalNow_ < until) {
        if (stop_when && stop_when())
            return;
        if (!stepOne())
            return;
    }
}

void
Scheduler::runUntilFinished(const SimThread *thread, Tick until)
{
    run(until, [thread] { return thread->finished; });
}

TraceBus *
ThreadApi::traceBus() const
{
    return sched_ ? sched_->traceBus() : nullptr;
}

} // namespace csim
