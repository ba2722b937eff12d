#include "sim/scheduler.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace csim
{

namespace
{

/** Largest event time whose packed key (time << 1 | is_issue) stays
 *  below EventTree::none. */
constexpr Tick maxEventTime = (Tick{1} << 63) - 2;

/** Bound on polls, quantum and switch penalty of a parked core, so
 *  grid arithmetic on event times cannot overflow. */
constexpr Tick maxGridSpan = Tick{1} << 60;

/** Polls of a core's only thread: endless, yet twice it fits. */
constexpr Tick endlessPolls = maxTick / 2;

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

/**
 * How many of a turn's 2·@p polls events ran once every event up to
 * (@p key, @p ptid) has: poll i issues at start + i·poll and resumes
 * one poll later, so the turn's event e falls at
 * start + ⌈e/2⌉·poll, an issue when e is even.
 */
Tick
turnEventsRan(Tick start, Tick poll, Tick polls, ThreadId tid,
              std::uint64_t key, ThreadId ptid)
{
    const Tick time = key >> 1;
    if (time < start)
        return 0;
    const Tick q = (time - start) / poll;
    if (q > polls)
        return 2 * polls;
    // Every event before time ran: those of grid points 0 .. q - 1,
    // and of point q too when it falls before time.
    const bool on = start + q * poll == time;
    const Tick before = on ? q : q + 1;
    Tick ran = before ? 2 * before - 1 : 0;
    if (on) {
        auto le = [&](std::uint64_t k) {
            return k < key || (k == key && tid <= ptid);
        };
        ran += q >= 1 && le(time << 1);
        ran += q < polls && le(time << 1 | 1);
    }
    return std::min(ran, 2 * polls);
}

} // namespace

Scheduler::Scheduler(MemoryBackend *backend, int num_cores,
                     SchedulerParams params)
    : backend_(backend), params_(params)
{
    fatal_if(num_cores <= 0, "scheduler needs at least one core");
    fatal_if(!backend, "scheduler needs a memory backend");
    cores_.resize(static_cast<std::size_t>(num_cores));
    // Sized up front: grown mid-run, its reallocations fragment the
    // heap enough to raise fleet's peak RSS by about 2 MB.
    parked_.reserve(static_cast<std::size_t>(num_cores));
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
    // A parked core gets a thread that is not in its grid.
    if (cores_[static_cast<std::size_t>(core)].parked)
        materialise(core);
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
    CoreState &core = cores_[static_cast<std::size_t>(t.core())];
    // A batched turn ends at its holder's last resume, whose state
    // park() already gave it.
    if (core.parked && core.grid.pollers[0].thread == &t) {
        core.parked = false;
        std::erase(parked_, t.core());
    }
    panic_if(!t.current, "thread ", t.name(),
             " has no coroutine frame to resume");
    t.current.resume();
    events_.set(t.id(), t.finished ? EventTree::none : issueKey(t));

    if (t.finished) {
        // Only a batched core has a parked grid and a thread on the
        // tree; without t, its holder might poll on past its turn.
        if (core.parked)
            materialise(t.core());
        // The core's last thread may have lost its only waiter.
        std::erase(core.live, t.id());
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
        if (trace_ && trace_->enabled(TraceCategory::sched)) {
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
            trace_->enabled(TraceCategory::sched)) {
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
        if (trace_ && trace_->enabled(TraceCategory::sched)) {
            trace_->publish(TraceEvent{
                TraceEventType::schedPreempt, TraceCategory::sched,
                t.core(), t.now, 0,
                static_cast<std::uint64_t>(t.id()), 0});
        }
    }
    // The coroutine resumes when the operation completes, in global
    // completion-time order (see eventKey).
    t.resumePending = true;
    if (op.kind == MemOp::Kind::park && park(t))
        return;
    // The core's other threads start after freeAt, which just moved.
    if (hasWaiter(t))
        refreshCore(t.core());
    else
        events_.set(t.id(), packKey(t, t.now, 0));
}

bool
Scheduler::park(SimThread &t)
{
    CoreState &core = cores_[static_cast<std::size_t>(t.core())];
    const Tick poll = t.lastLatency;
    if (poll == 0 || poll > maxGridSpan ||
        (trace_ && trace_->enabled(TraceCategory::sched)))
        return false;
    // For the whole grid every waiter must be waiting on a park it
    // has issued. It did so at its last resume, no later than now,
    // so it gets the core one switch penalty after the holder's last
    // poll. With any other waiter only the holder's turn is known.
    SimThread *first = nullptr;
    bool batched = false;
    for (ThreadId id : core.live) {
        SimThread &w = *threads_[static_cast<std::size_t>(id)];
        if (&w == &t)
            continue;
        if (w.resumePending || w.pending.kind != MemOp::Kind::park ||
            w.pending.cycles == 0 || w.pending.cycles > maxGridSpan)
            batched = true;
        else if (!first || w.id() < first->id())
            first = &w;
    }
    // Without a penalty the waiters' issues tie with the holder's,
    // and the lower id takes the core at every poll.
    const Tick penalty = params_.contextSwitchPenalty;
    const Tick quantum = params_.quantum;
    const bool waiter = hasWaiter(t);
    if (waiter && (penalty == 0 || penalty > maxGridSpan ||
                   quantum > maxGridSpan))
        return false;
    // The first poll must be a representable event, as a spin's
    // resume would have to be.
    packKey(t, t.now, 0);

    Grid &g = core.grid;
    g.start = t.now - poll;
    g.acquiredAt = core.acquiredAt;
    g.pollers = {};
    g.pollers[0] = {&t, poll, endlessPolls};
    if (waiter) {
        // The holder polls until k·poll past acquiredAt exceeds the
        // quantum.
        const Tick held = g.start - g.acquiredAt;
        g.pollers[0].polls = held >= quantum ? 1
                                             : (quantum - held) / poll + 1;
    }
    if (batched)
        return batchTurn(t);
    if (first) {
        // Every turn after the holder's starts afresh, and goes to
        // the lowest id other than the last holder's (the waiters'
        // clocks are all at or before freeAt, so their keys tie).
        SimThread *second = &t;
        for (ThreadId id : core.live) {
            SimThread &w = *threads_[static_cast<std::size_t>(id)];
            if (&w != first && w.id() < second->id())
                second = &w;
        }
        Tick period = 0;
        for (std::size_t i : {1, 2}) {
            SimThread *w = i == 1 ? first : second;
            const Tick p = w == &t ? poll : w->pending.cycles;
            g.pollers[i] = {w, p, quantum / p + 1};
            period += g.pollers[i].polls * p + penalty;
        }
        g.period = period;
    }

    t.resumePending = false;
    parkCore(t, false);
    for (ThreadId id : core.live) {
        threads_[static_cast<std::size_t>(id)]->parked = true;
        events_.set(id, EventTree::none);
    }
    return true;
}

bool
Scheduler::batchTurn(SimThread &t)
{
    CoreState &core = cores_[static_cast<std::size_t>(t.core())];
    const GridPoller &p = core.grid.pollers[0];
    // The park itself ends a turn of one poll.
    if (p.polls == 1)
        return false;
    const Tick end = core.grid.start + p.polls * p.poll;
    if (end > maxEventTime)
        return false;
    // The state the turn's last poll leaves: it executed, the quantum
    // is spent, and the holder's resume is its one event on the tree.
    // No other thread of the core can issue before then, as each of
    // their keys carries the switch penalty past freeAt.
    t.now = end;
    t.opsExecuted += p.polls - 1;
    core.freeAt = end;
    core.mustYield = true;
    parkCore(t, true);
    refreshCore(t.core());
    return true;
}

void
Scheduler::parkCore(const SimThread &t, bool batched)
{
    CoreState &core = cores_[static_cast<std::size_t>(t.core())];
    if (parked_.empty()) {
        // Picks are tracked only while a core is parked; the park
        // itself is the first that matters.
        pickedKey_ = core.grid.start << 1 | 1;
        pickedTid_ = t.id();
    }
    core.parked = true;
    core.batched = batched;
    parked_.push_back(t.core());
}

Scheduler::Turn
Scheduler::turn(const CoreState &core, Tick k) const
{
    const Grid &g = core.grid;
    const GridPoller &holder = g.pollers[0];
    if (k == 0)
        return {&holder, g.start, g.acquiredAt};
    const Tick penalty = params_.contextSwitchPenalty;
    const GridPoller &odd = g.pollers[1];
    Tick start = g.start + holder.polls * holder.poll + penalty +
                 (k - 1) / 2 * g.period;
    if (k % 2 == 0)
        start += odd.polls * odd.poll + penalty;
    return {&g.pollers[k % 2 ? 1 : 2], start, start};
}

Scheduler::GridPos
Scheduler::gridPos(const CoreState &core, std::uint64_t key,
                   ThreadId tid) const
{
    const auto ran_in = [&](const Turn &tn) {
        const GridPoller &p = *tn.poller;
        return turnEventsRan(tn.start, p.poll, p.polls, p.thread->id(),
                             key, tid);
    };
    const Turn first = turn(core, 0);
    Tick ran = ran_in(first);
    if (ran < 2 * first.poller->polls || core.batched)
        return {0, ran};
    // Skip whole periods of turns 1 and 2, then step turn by turn: a
    // period is under time from its start, so a few turns do.
    const Tick time = key >> 1;
    const Tick s1 = turn(core, 1).start;
    Tick k = 1;
    if (time > s1)
        k += 2 * ((time - s1) / core.grid.period);
    for (;; ++k) {
        const Turn tn = turn(core, k);
        ran = ran_in(tn);
        if (ran < 2 * tn.poller->polls)
            return {k, ran};
    }
}

void
Scheduler::replayTurn(CoreState &core, const Turn &tn, Tick ran)
{
    if (ran == 0)
        return;
    const GridPoller &p = *tn.poller;
    SimThread &t = *p.thread;
    const Tick polls = (ran + 1) / 2;
    t.now = tn.start + polls * p.poll;
    t.opsExecuted += polls;
    t.lastLatency = p.poll;
    // An odd count ends on a poll's issue, an even one on its resume,
    // after which the thread has issued its next park.
    t.resumePending = ran % 2;
    t.pending = t.resumePending ? MemOp{}
                                : MemOp{MemOp::Kind::park, 0, p.poll};
    core.freeAt = t.now;
    core.lastThread = t.id();
    core.acquiredAt = tn.acquiredAt;
    if (p.polls != endlessPolls)
        core.mustYield = polls == p.polls;
}

void
Scheduler::materialise(CoreId c)
{
    CoreState &core = cores_[static_cast<std::size_t>(c)];
    const GridPos pos = gridPos(core, pickedKey_, pickedTid_);
    // The park that parked the core is already counted, and so are
    // the rest of a batched turn's polls.
    const GridPoller &holder = core.grid.pollers[0];
    holder.thread->opsExecuted -= core.batched ? holder.polls : 1;
    replayTurn(core, turn(core, 0),
               pos.turn ? 2 * core.grid.pollers[0].polls : pos.ran);
    // Each waiter's last whole turn sets its clock; its earlier ones,
    // two turns apart, only add polls.
    for (Tick k = pos.turn > 2 ? pos.turn - 2 : 1; k < pos.turn; ++k) {
        const Turn tn = turn(core, k);
        tn.poller->thread->opsExecuted += (k - 1) / 2 * tn.poller->polls;
        replayTurn(core, tn, 2 * tn.poller->polls);
    }
    if (pos.turn)
        replayTurn(core, turn(core, pos.turn), pos.ran);
    core.parked = false;
    std::erase(parked_, c);
    for (ThreadId id : core.live)
        threads_[static_cast<std::size_t>(id)]->parked = false;
    refreshCore(c);
}

void
Scheduler::unpark(SimThread &t)
{
    // Of a batched core, only the holder polls off the tree.
    const CoreState &core = cores_[static_cast<std::size_t>(t.core())];
    if (t.parked || (core.parked && core.grid.pollers[0].thread == &t))
        materialise(t.core());
    if (t.pending.kind == MemOp::Kind::park)
        t.pending.kind = MemOp::Kind::spin;
}

void
Scheduler::unparkAll()
{
    while (!parked_.empty())
        materialise(parked_.back());
}

bool
Scheduler::stopAtParkedPoll(Tick until)
{
    const int next = events_.next();
    const std::uint64_t next_key = events_.nextKey();
    if (next >= 0 && (next_key >> 1) < until)
        return false;
    // Each parked core's first grid event at or past until: the
    // first not run once every event before until has.
    std::uint64_t first_key = EventTree::none;
    ThreadId first_tid = invalidThread;
    for (CoreId c : parked_) {
        if (until > maxEventTime)
            break;
        const CoreState &core = cores_[static_cast<std::size_t>(c)];
        const GridPos pos =
            gridPos(core, (until << 1) - 1,
                    std::numeric_limits<ThreadId>::max());
        const Turn tn = turn(core, pos.turn);
        // A batched turn's last resume is on the tree.
        if (core.batched && pos.ran + 1 == 2 * tn.poller->polls)
            continue;
        const Tick time = tn.start + (pos.ran + 1) / 2 * tn.poller->poll;
        if (time > maxEventTime)
            continue;
        const std::uint64_t key = time << 1 | (pos.ran % 2 == 0);
        const ThreadId tid = tn.poller->thread->id();
        if (key < first_key || (key == first_key && tid < first_tid)) {
            first_key = key;
            first_tid = tid;
        }
    }
    if (first_tid == invalidThread) {
        panic_if(next < 0, "only parked threads remain, and none of "
                 "them polls by tick ", until);
        return false;
    }
    if (next >= 0 &&
        (next_key < first_key ||
         (next_key == first_key && next < first_tid)))
        return false;
    globalNow_ = std::max(globalNow_, first_key >> 1);
    pickedKey_ = first_key;
    pickedTid_ = first_tid;
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
