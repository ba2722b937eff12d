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
    // A thread parked on the core gets a waiter, which only a
    // polling thread can yield to.
    auto &live = cores_[static_cast<std::size_t>(core)].live;
    for (ThreadId other : live)
        unpark(*threads_[static_cast<std::size_t>(other)]);
    // The new thread's first event, and the core's last thread may
    // now have a waiter to yield to.
    live.push_back(tid);
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
      case MemOp::Kind::park:
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
    else if (op.kind == MemOp::Kind::park && op.cycles > 0)
        park(t);
    else
        events_.set(t.id(), packKey(t, t.now, 0));
}

void
Scheduler::park(SimThread &t)
{
    // The first poll must be a representable event, as a spin's
    // resume would have to be.
    packKey(t, t.now, 0);
    if (parked_.empty()) {
        // Picks are tracked only while a thread is parked; the park
        // itself is the first that matters.
        pickedKey_ = (t.now - t.lastLatency) << 1 | 1;
        pickedTid_ = t.id();
    }
    t.resumePending = false;
    t.parked = true;
    parked_.push_back(&t);
    events_.set(t.id(), EventTree::none);
}

void
Scheduler::materialise(SimThread &t)
{
    // Poll k >= 1 is a resume, then an issue, at anchor + k * poll;
    // the park was the issue at the anchor. The first j of these
    // events ran: they move the clock and op count on by j / 2
    // polls, and an odd j leaves the last poll's issue pending.
    const Tick poll = t.lastLatency;
    const Tick anchor = t.now - poll;
    const Tick tick = pickedKey_ >> 1;
    auto ran = [&](std::uint64_t key) {
        return key < pickedKey_ ||
               (key == pickedKey_ && t.id() <= pickedTid_);
    };
    const Tick k = tick > anchor ? (tick - anchor) / poll : 0;
    Tick j = 2 * k;
    if (k > 0 && anchor + k * poll == tick) {
        j -= !ran(tick << 1 | 1);
        j -= !ran(tick << 1);
    }
    t.now += j / 2 * poll;
    t.opsExecuted += j / 2;
    cores_[static_cast<std::size_t>(t.core())].freeAt = t.now;
    if (j % 2)
        t.pending = MemOp{MemOp::Kind::spin, 0, poll};
    else
        t.resumePending = true;
    t.parked = false;
    refresh(t);
}

void
Scheduler::unpark(SimThread &t)
{
    if (t.parked) {
        std::erase(parked_, &t);
        materialise(t);
    } else if (t.pending.kind == MemOp::Kind::park) {
        t.pending.kind = MemOp::Kind::spin;
    }
}

void
Scheduler::unparkAll()
{
    for (SimThread *t : parked_)
        materialise(*t);
    parked_.clear();
}

bool
Scheduler::stopAtParkedPoll(Tick until)
{
    const int next = events_.next();
    const std::uint64_t next_key = events_.nextKey();
    if (next >= 0 && (next_key >> 1) < until)
        return false;
    // Each parked thread's first poll at or past until; a poll's
    // resume is its first event.
    const SimThread *first = nullptr;
    Tick first_tick = 0;
    for (const SimThread *t : parked_) {
        const Tick poll = t->lastLatency;
        Tick tick = t->now;
        if (until > tick) {
            const Tick gap = until - tick;
            const Tick polls = gap / poll + (gap % poll != 0);
            if (polls > (maxEventTime - tick) / poll)
                continue;
            tick += polls * poll;
        }
        if (!first || tick < first_tick ||
            (tick == first_tick && t->id() < first->id())) {
            first = t;
            first_tick = tick;
        }
    }
    if (!first) {
        panic_if(next < 0, "only parked threads remain, and none of "
                 "them polls by tick ", until);
        return false;
    }
    const std::uint64_t key = first_tick << 1;
    if (next >= 0 &&
        (next_key < key || (next_key == key && next < first->id())))
        return false;
    globalNow_ = std::max(globalNow_, first_tick);
    pickedKey_ = key;
    pickedTid_ = first->id();
    return true;
}

bool
Scheduler::step(Tick until)
{
    const bool parked = !parked_.empty();
    if (parked && stopAtParkedPoll(until))
        return false;
    SimThread *t = pickNext();
    if (!t)
        return false;
    if (parked) {
        const std::uint64_t key = events_.nextKey();
        if (key > pickedKey_ ||
            (key == pickedKey_ && t->id() > pickedTid_)) {
            pickedKey_ = key;
            pickedTid_ = t->id();
        }
    }
    if (t->resumePending)
        resume(*t);
    else
        execute(*t);
    return true;
}

bool
Scheduler::stepOne()
{
    const bool stepped = step(maxTick);
    unparkAll();
    return stepped;
}

void
Scheduler::run(Tick until)
{
    while (globalNow_ < until && step(until)) {
    }
    unparkAll();
}

void
Scheduler::runUntilFinished(std::span<const SimThread *const> threads,
                            Tick until)
{
    // A finished thread stays finished, so the scan resumes at the
    // first one still running.
    std::size_t running = 0;
    while (globalNow_ < until) {
        while (running < threads.size() && threads[running]->finished)
            ++running;
        if (running == threads.size() || !step(until))
            break;
    }
    unparkAll();
}

TraceBus *
ThreadApi::traceBus() const
{
    return sched_ ? sched_->traceBus() : nullptr;
}

} // namespace csim
