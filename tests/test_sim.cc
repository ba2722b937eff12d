/**
 * @file
 * Unit tests for the simulation engine: coroutine tasks, the
 * virtual-time scheduler, core sharing and the sync primitives.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "sim/event_tree.hh"
#include "sim/memory_backend.hh"
#include "sim/scheduler.hh"

namespace csim
{
namespace
{

/** Backend with fixed latencies that records every operation. */
class RecordingBackend : public MemoryBackend
{
  public:
    struct Op
    {
        char kind;
        ThreadId tid;
        CoreId core;
        VAddr addr;
        Tick when;
    };

    AccessResult
    load(ThreadId tid, CoreId core, VAddr addr, Tick when) override
    {
        ops.push_back({'L', tid, core, addr, when});
        return {loadLat, ServedBy::dram};
    }
    AccessResult
    store(ThreadId tid, CoreId core, VAddr addr, Tick when) override
    {
        ops.push_back({'S', tid, core, addr, when});
        return {storeLat, ServedBy::none};
    }
    AccessResult
    flush(ThreadId tid, CoreId core, VAddr addr, Tick when) override
    {
        ops.push_back({'F', tid, core, addr, when});
        return {flushLat, ServedBy::none};
    }

    Tick loadLat = 100;
    Tick storeLat = 20;
    Tick flushLat = 50;
    std::vector<Op> ops;
};

struct SimTest : public ::testing::Test
{
    RecordingBackend backend;
};

TEST_F(SimTest, SpinAdvancesClockExactly)
{
    Scheduler sched(&backend, 1);
    SimThread *t = sched.spawn("t", 0, 0, [](ThreadApi api) -> Task {
        co_await api.spin(123);
        co_await api.spin(7);
    });
    sched.run();
    EXPECT_TRUE(t->finished);
    EXPECT_EQ(t->now, 130u);
}

TEST_F(SimTest, SpinUntilReachesTarget)
{
    Scheduler sched(&backend, 1);
    SimThread *t = sched.spawn("t", 0, 0, [](ThreadApi api) -> Task {
        co_await api.spinUntil(500);
        // A target in the past is a no-op.
        co_await api.spinUntil(100);
    });
    sched.run();
    EXPECT_EQ(t->now, 500u);
}

TEST_F(SimTest, LoadReturnsLatencyAndRoutesToBackend)
{
    Scheduler sched(&backend, 2);
    Tick seen = 0;
    SimThread *t =
        sched.spawn("t", 1, 3, [&](ThreadApi api) -> Task {
            seen = co_await api.load(0x1040);
        });
    sched.run();
    EXPECT_TRUE(t->finished);
    EXPECT_EQ(seen, 100u);
    ASSERT_EQ(backend.ops.size(), 1u);
    EXPECT_EQ(backend.ops[0].kind, 'L');
    EXPECT_EQ(backend.ops[0].core, 1);
    EXPECT_EQ(backend.ops[0].addr, 0x1040u);
    EXPECT_EQ(t->lastServed, ServedBy::dram);
}

TEST_F(SimTest, StoreAndFlushRouteToBackend)
{
    Scheduler sched(&backend, 1);
    sched.spawn("t", 0, 0, [](ThreadApi api) -> Task {
        co_await api.store(0x80);
        co_await api.flush(0x80);
    });
    sched.run();
    ASSERT_EQ(backend.ops.size(), 2u);
    EXPECT_EQ(backend.ops[0].kind, 'S');
    EXPECT_EQ(backend.ops[1].kind, 'F');
    EXPECT_EQ(backend.ops[1].when, 20u);
}

TEST_F(SimTest, ThreadsOnDifferentCoresRunConcurrently)
{
    Scheduler sched(&backend, 2);
    SimThread *a = sched.spawn("a", 0, 0, [](ThreadApi api) -> Task {
        for (int i = 0; i < 10; ++i)
            co_await api.load(0);
    });
    SimThread *b = sched.spawn("b", 1, 0, [](ThreadApi api) -> Task {
        for (int i = 0; i < 10; ++i)
            co_await api.load(64);
    });
    sched.run();
    // No core contention: both finish at 10 loads x 100 cycles.
    EXPECT_EQ(a->now, 1000u);
    EXPECT_EQ(b->now, 1000u);
}

TEST_F(SimTest, SameCoreSerializesWithSwitchPenalty)
{
    SchedulerParams params;
    params.contextSwitchPenalty = 10;
    params.quantum = 1'000'000;
    Scheduler sched(&backend, 1, params);
    SimThread *a = sched.spawn("a", 0, 0, [](ThreadApi api) -> Task {
        co_await api.load(0);
    });
    SimThread *b = sched.spawn("b", 0, 0, [](ThreadApi api) -> Task {
        co_await api.load(64);
    });
    sched.run();
    EXPECT_TRUE(a->finished);
    EXPECT_TRUE(b->finished);
    // b waits for a's load plus the switch penalty.
    EXPECT_EQ(a->now, 100u);
    EXPECT_EQ(b->now, 210u);
}

TEST_F(SimTest, QuantumForcesAlternationOnSharedCore)
{
    SchedulerParams params;
    params.contextSwitchPenalty = 0;
    params.quantum = 150;
    Scheduler sched(&backend, 1, params);
    std::vector<char> order;
    auto body = [&](char who) {
        return [&order, who](ThreadApi api) -> Task {
            for (int i = 0; i < 4; ++i) {
                order.push_back(who);
                co_await api.spin(100);
            }
        };
    };
    sched.spawn("a", 0, 0, body('a'));
    sched.spawn("b", 0, 0, body('b'));
    sched.run();
    // The quantum (150) allows two 100-cycle slices before the core
    // must be yielded, so the other thread runs by index 2 at the
    // latest.
    ASSERT_EQ(order.size(), 8u);
    // Neither thread runs all four of its slices consecutively: the
    // quantum (150 < 2 slices) forces at least one hand-over before
    // the first thread finishes.
    EXPECT_NE(order[3], order[0]);
    int transitions = 0;
    for (std::size_t i = 1; i < order.size(); ++i)
        transitions += order[i] != order[i - 1];
    EXPECT_GE(transitions, 2);
}

TEST_F(SimTest, SleepDoesNotOccupyCore)
{
    SchedulerParams params;
    params.contextSwitchPenalty = 0;
    params.quantum = 1'000'000;
    Scheduler sched(&backend, 1, params);
    SimThread *sleeper =
        sched.spawn("sleeper", 0, 0, [](ThreadApi api) -> Task {
            co_await api.sleep(10'000);
        });
    SimThread *worker =
        sched.spawn("worker", 0, 0, [](ThreadApi api) -> Task {
            for (int i = 0; i < 5; ++i)
                co_await api.spin(100);
        });
    sched.run();
    // The worker is not blocked behind the sleeper's 10k cycles.
    EXPECT_EQ(worker->now, 500u);
    EXPECT_EQ(sleeper->now, 10'000u);
}

TEST_F(SimTest, NestedTasksRunOnTheSameThread)
{
    Scheduler sched(&backend, 1);
    std::vector<int> trace;
    auto inner = [&](ThreadApi api, int tag) -> Task {
        trace.push_back(tag);
        co_await api.spin(10);
        trace.push_back(tag * 10);
    };
    SimThread *t =
        sched.spawn("t", 0, 0, [&](ThreadApi api) -> Task {
            trace.push_back(1);
            co_await inner(api, 2);
            trace.push_back(3);
            co_await inner(api, 4);
        });
    sched.run();
    EXPECT_TRUE(t->finished);
    EXPECT_EQ(trace, (std::vector<int>{1, 2, 20, 3, 4, 40}));
    EXPECT_EQ(t->now, 20u);
}

TEST_F(SimTest, DeeplyNestedTasksUnwindCorrectly)
{
    Scheduler sched(&backend, 1);
    int depth_reached = 0;
    std::function<Task(ThreadApi, int)> recurse =
        [&](ThreadApi api, int depth) -> Task {
        depth_reached = std::max(depth_reached, depth);
        if (depth < 8) {
            co_await api.spin(1);
            co_await recurse(api, depth + 1);
        }
    };
    SimThread *t =
        sched.spawn("t", 0, 0, [&](ThreadApi api) -> Task {
            co_await recurse(api, 1);
        });
    sched.run();
    EXPECT_TRUE(t->finished);
    EXPECT_EQ(depth_reached, 8);
    EXPECT_EQ(t->now, 7u);
}

TEST_F(SimTest, ExceptionInTopLevelTaskPropagates)
{
    Scheduler sched(&backend, 1);
    sched.spawn("t", 0, 0, [](ThreadApi api) -> Task {
        co_await api.spin(5);
        throw std::runtime_error("boom");
    });
    EXPECT_THROW(sched.run(), std::runtime_error);
}

TEST_F(SimTest, ExceptionInNestedTaskPropagatesToAwaiter)
{
    Scheduler sched(&backend, 1);
    bool caught = false;
    auto inner = [](ThreadApi api) -> Task {
        co_await api.spin(1);
        throw std::runtime_error("inner boom");
    };
    SimThread *t =
        sched.spawn("t", 0, 0, [&](ThreadApi api) -> Task {
            try {
                co_await inner(api);
            } catch (const std::runtime_error &) {
                caught = true;
            }
            co_await api.spin(1);
        });
    sched.run();
    EXPECT_TRUE(caught);
    EXPECT_TRUE(t->finished);
}

TEST_F(SimTest, ResumeOrderMatchesVirtualTime)
{
    // Regression test for the wall-order vs virtual-time bug: a
    // controller that wakes from a long spinUntil and writes shared
    // C++ state must not be visible to a poller before the wakeup's
    // virtual time.
    Scheduler sched(&backend, 2);
    int mode = 0;
    std::vector<std::pair<Tick, int>> observations;
    sched.spawn("controller", 0, 0, [&](ThreadApi api) -> Task {
        co_await api.spinUntil(10'000);
        mode = 1;
        co_await api.spinUntil(20'000);
        mode = 2;
    });
    SimThread *poller =
        sched.spawn("poller", 1, 0, [&](ThreadApi api) -> Task {
            for (int i = 0; i < 250; ++i) {
                observations.emplace_back(api.now(), mode);
                co_await api.spin(100);
            }
        });
    sched.runUntilFinished(poller);
    for (const auto &[when, m] : observations) {
        if (when < 10'000) {
            EXPECT_EQ(m, 0) << "at tick " << when;
        } else if (when > 10'100 && when < 20'000) {
            EXPECT_EQ(m, 1) << "at tick " << when;
        } else if (when > 20'100) {
            EXPECT_EQ(m, 2) << "at tick " << when;
        }
    }
}

TEST_F(SimTest, DeterministicAcrossRuns)
{
    auto run_once = [this] {
        RecordingBackend be;
        Scheduler sched(&be, 4);
        std::vector<SimThread *> threads;
        for (int i = 0; i < 4; ++i) {
            threads.push_back(sched.spawn(
                msgCat("t", i), i % 4, 0,
                [i](ThreadApi api) -> Task {
                    for (int k = 0; k < 20; ++k) {
                        co_await api.load(
                            static_cast<VAddr>(i * 4096 + k * 64));
                        co_await api.spin(13 + i);
                    }
                }));
        }
        sched.run();
        std::vector<Tick> ends;
        for (auto *t : threads)
            ends.push_back(t->now);
        return std::make_pair(be.ops.size(), ends);
    };
    const auto a = run_once();
    const auto b = run_once();
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

/** FNV-1a over 64-bit words. */
std::uint64_t
fnvMix(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * Digest of a finished run: every backend op (kind, tid, core, addr,
 * tick) in execution order, then each thread's final clock and op
 * count.
 */
std::uint64_t
scheduleDigest(const RecordingBackend &be, const Scheduler &sched)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto &op : be.ops) {
        h = fnvMix(h, static_cast<std::uint64_t>(op.kind));
        h = fnvMix(h, static_cast<std::uint64_t>(op.tid));
        h = fnvMix(h, static_cast<std::uint64_t>(op.core));
        h = fnvMix(h, op.addr);
        h = fnvMix(h, op.when);
    }
    for (const auto &t : sched.threads()) {
        h = fnvMix(h, t->now);
        h = fnvMix(h, t->opsExecuted);
    }
    return h;
}

/**
 * One seeded thread body: @p ops random operations drawn from the
 * whole instruction set, with latencies on a coarse grid so resumes
 * and issues of different threads tie often. Odd threads end on a
 * sleep, so some finish while another thread holds their core past
 * its quantum. When @p spawn_core is valid the body spawns one more
 * thread there part-way through.
 */
std::function<Task(ThreadApi)>
randomBody(std::uint64_t seed, int ops, CoreId spawn_core)
{
    return [seed, ops, spawn_core](ThreadApi api) -> Task {
        Rng rng(seed);
        for (int i = 0; i < ops; ++i) {
            if (i == ops / 2 && spawn_core != invalidCore) {
                api.scheduler()->spawn(
                    "late", spawn_core, 0,
                    randomBody(seed ^ 0xabcdef, 30, invalidCore));
            }
            const VAddr addr = rng.below(64) * 64;
            switch (rng.below(6)) {
              case 0: co_await api.load(addr); break;
              case 1: co_await api.store(addr); break;
              case 2: co_await api.flush(addr); break;
              case 3: co_await api.spin(rng.below(4) * 50); break;
              case 4:
                // Targets in the past are no-ops, in the future waits.
                co_await api.spinUntil(api.now() + rng.below(6) * 50 -
                                       std::min<Tick>(api.now(), 100));
                break;
              default: co_await api.sleep(rng.below(5) * 100); break;
            }
        }
        if (api.id() % 2 == 1)
            co_await api.sleep(rng.below(8) * 200);
    };
}

/**
 * A seeded contended schedule: 24 threads on 6 cores with a small
 * quantum, uneven run lengths and one thread spawned from inside a
 * running coroutine.
 */
std::uint64_t
contendedScheduleDigest(Tick switch_penalty)
{
    RecordingBackend be;
    SchedulerParams params;
    params.contextSwitchPenalty = switch_penalty;
    params.quantum = 400;
    Scheduler sched(&be, 6, params);
    for (int i = 0; i < 24; ++i) {
        const auto seed = deriveSeed(15, static_cast<std::uint64_t>(i));
        sched.spawn(msgCat("t", i), i % 6, 0,
                    randomBody(seed, 10 + (i * 7) % 50,
                               i == 4 ? 3 : invalidCore));
    }
    sched.run();
    EXPECT_TRUE(sched.allFinished());
    EXPECT_EQ(sched.threads().size(), 25u);
    return scheduleDigest(be, sched);
}

// The digests below were produced by the original linear-scan
// scheduler. Any change to event order (resume-before-issue ties,
// quantum hand-over, tie-breaking by thread id) moves them.

TEST_F(SimTest, ContendedScheduleIsPinned)
{
    EXPECT_EQ(contendedScheduleDigest(0), 0xcb7a33341998d3f5ULL);
    EXPECT_EQ(contendedScheduleDigest(SchedulerParams{}
                                          .contextSwitchPenalty),
              0x9fdadf3d6b31c656ULL);
}

TEST_F(SimTest, YieldingCoreHandOverIsPinned)
{
    // The holder runs past its quantum while the napper sleeps, so
    // it must yield; the napper then finishes without running again,
    // leaving the holder alone with its core still marked to yield.
    // A thread spawned onto that core later must get it next: the
    // spawn lands at tick 4010, after the holder's resume there and
    // before its next issue.
    SchedulerParams params;
    params.quantum = 400;
    Scheduler sched(&backend, 2, params);
    sched.spawn("holder", 0, 0, [](ThreadApi api) -> Task {
        for (int i = 0; i < 40; ++i) {
            co_await api.load(0x1000);
            co_await api.spin(100);
        }
    });
    sched.spawn("napper", 0, 0, [](ThreadApi api) -> Task {
        co_await api.spin(10);
        co_await api.sleep(1'000);
    });
    sched.spawn("spawner", 1, 0, [](ThreadApi api) -> Task {
        co_await api.spinUntil(4'010);
        api.scheduler()->spawn("late", 0, 0, [](ThreadApi late) -> Task {
            co_await late.load(0x2000);
            co_await late.spin(50);
            co_await late.load(0x2000);
        });
    });
    sched.run();
    EXPECT_EQ(scheduleDigest(backend, sched), 0x8a700300ad9c7c91ULL);
}

// Parked pollers. Each schedule below runs twice, its pollers waiting
// with park() in one twin and with spin() in the other; parking must
// change nothing a run can observe.

/** How a test poller waits between polls of its flag. */
enum class Wait
{
    spin,
    park
};

OpAwaiter
waitOnce(ThreadApi api, Wait wait, Tick poll)
{
    return wait == Wait::park ? api.park(poll) : api.spin(poll);
}

/**
 * A poller that works for @p busy cycles, waits for @p flag, then
 * loads one line.
 */
std::function<Task(ThreadApi)>
flagPoller(const bool &flag, Wait wait, Tick poll, Tick busy = 0)
{
    return [&flag, wait, poll, busy](ThreadApi api) -> Task {
        co_await api.spin(busy);
        while (!flag)
            co_await waitOnce(api, wait, poll);
        co_await api.load(0x40);
    };
}

/**
 * The writer raises the poller's flag at tick 500, after the poller
 * resumed there and issued its first wait but before that wait
 * executed.
 */
std::uint64_t
pendingParkDigest(Wait wait)
{
    RecordingBackend be;
    Scheduler sched(&be, 2);
    bool flag = false;
    SimThread *poller = sched.spawn("poller", 0, 0,
                                    flagPoller(flag, wait, 100, 500));
    sched.spawn("writer", 1, 0, [&](ThreadApi api) -> Task {
        co_await api.spin(500);
        EXPECT_EQ(poller->pending.kind, wait == Wait::park
                                            ? MemOp::Kind::park
                                            : MemOp::Kind::spin);
        flag = true;
        sched.unpark(*poller);
        co_await api.spin(1'000);
    });
    sched.runUntilFinished(poller, 10'000);
    EXPECT_TRUE(poller->finished);
    return fnvMix(scheduleDigest(be, sched), sched.now());
}

TEST_F(SimTest, WriteBeforeAPendingParkExecutesIsSeen)
{
    EXPECT_EQ(pendingParkDigest(Wait::park),
              pendingParkDigest(Wait::spin));
}

/**
 * Runs cut short by `until` while a poller waits: first with the
 * writer's next event past the cut, then with no other thread left.
 */
std::uint64_t
cutDigest(Wait wait)
{
    RecordingBackend be;
    Scheduler sched(&be, 3);
    bool flag = false;
    bool last_flag = false;
    SimThread *poller = sched.spawn("poller", 0, 0,
                                    flagPoller(flag, wait, 100));
    SimThread *last = sched.spawn("last", 1, 0,
                                  flagPoller(last_flag, wait, 70));
    SimThread *writer =
        sched.spawn("writer", 2, 0, [&](ThreadApi api) -> Task {
            co_await api.spin(10'000);
            // Parked at its poll grid, not spinning through it.
            EXPECT_EQ(poller->parked, wait == Wait::park);
            flag = true;
            sched.unpark(*poller);
        });
    std::uint64_t h = 0;
    sched.run(5'050);
    // The poll at 5'100 is the first event at or past the cut.
    EXPECT_EQ(sched.now(), 5'100u);
    h = fnvMix(h, sched.now());
    sched.runUntilFinished(writer, 7'001);
    h = fnvMix(h, sched.now());
    sched.runUntilFinished(poller);
    h = fnvMix(h, sched.now());
    sched.run(sched.now() + 333);
    h = fnvMix(h, sched.now());
    EXPECT_FALSE(last->finished);
    last_flag = true;
    sched.unpark(*last);
    sched.run();
    return fnvMix(h, scheduleDigest(be, sched));
}

TEST_F(SimTest, TimeoutStopsAtAParkedPoll)
{
    EXPECT_EQ(cutDigest(Wait::park), cutDigest(Wait::spin));
}

/**
 * The writer spawns a guest onto the waiting poller's core; they
 * share it, past the quantum, until the writer raises the flag.
 */
std::uint64_t
spawnOntoPollerDigest(Wait wait)
{
    RecordingBackend be;
    Scheduler sched(&be, 2);
    bool flag = false;
    SimThread *poller = sched.spawn("poller", 0, 0,
                                    flagPoller(flag, wait, 100));
    sched.spawn("writer", 1, 0, [&](ThreadApi api) -> Task {
        co_await api.spin(1'050);
        api.scheduler()->spawn("guest", 0, 0, [](ThreadApi g) -> Task {
            for (VAddr i = 0; i < 10; ++i) {
                co_await g.load(0x1000 + i * 64);
                co_await g.spin(700);
            }
        });
        co_await api.spin(20'000);
        flag = true;
        sched.unpark(*poller);
    });
    sched.run();
    return fnvMix(scheduleDigest(be, sched), sched.now());
}

TEST_F(SimTest, SpawnOntoAParkedCoreUnparksIt)
{
    EXPECT_EQ(spawnOntoPollerDigest(Wait::park),
              spawnOntoPollerDigest(Wait::spin));
}

/**
 * Two pollers share core 0, a third has core 1 to itself, and a
 * fourth shares core 3 with a busy thread; the writer samples which
 * of them are parked.
 */
std::uint64_t
sharedCoreDigest(Wait wait, bool &shared_parked, bool &alone_parked,
                 bool &mixed_parked, SchedulerParams params = {})
{
    RecordingBackend be;
    Scheduler sched(&be, 4, params);
    bool flag = false;
    SimThread *a = sched.spawn("a", 0, 0, flagPoller(flag, wait, 100));
    SimThread *b = sched.spawn("b", 0, 0, flagPoller(flag, wait, 60));
    SimThread *c = sched.spawn("c", 1, 0, flagPoller(flag, wait, 100));
    SimThread *d = sched.spawn("d", 3, 0, flagPoller(flag, wait, 100));
    sched.spawn("busy", 3, 0, [&flag](ThreadApi api) -> Task {
        for (VAddr i = 0; !flag; ++i) {
            co_await api.load(0x4000 + i % 8 * 64);
            co_await api.spin(150);
        }
    });
    sched.spawn("writer", 2, 0, [&](ThreadApi api) -> Task {
        for (int i = 0; i < 40; ++i) {
            co_await api.spin(170);
            shared_parked = shared_parked || a->parked || b->parked;
            alone_parked = alone_parked || c->parked;
            mixed_parked = mixed_parked || d->parked;
        }
        flag = true;
        for (SimThread *t : {a, b, c, d})
            sched.unpark(*t);
    });
    sched.run();
    return fnvMix(scheduleDigest(be, sched), sched.now());
}

TEST_F(SimTest, OnlyCoresOfParkedPollersPark)
{
    bool shared_parked = false;
    bool alone_parked = false;
    bool mixed_parked = false;
    const std::uint64_t parked = sharedCoreDigest(
        Wait::park, shared_parked, alone_parked, mixed_parked);
    EXPECT_TRUE(shared_parked);
    EXPECT_TRUE(alone_parked);
    EXPECT_FALSE(mixed_parked);
    bool unused = false;
    EXPECT_EQ(parked,
              sharedCoreDigest(Wait::spin, unused, unused, unused));

    // Without a switch penalty the shared core's turns have no closed
    // form, so it polls.
    SchedulerParams no_penalty;
    no_penalty.contextSwitchPenalty = 0;
    shared_parked = false;
    const std::uint64_t polled = sharedCoreDigest(
        Wait::park, shared_parked, unused, unused, no_penalty);
    EXPECT_FALSE(shared_parked);
    EXPECT_EQ(polled, sharedCoreDigest(Wait::spin, unused, unused,
                                       unused, no_penalty));
}

/**
 * A seeded wake schedule: pollers 0-1 and 3-4 (poll 50 or 100) on
 * either side of the writer's thread id take wake-ups, each one a
 * load and a spin; the writer hands them out at 50-cycle multiples,
 * twice spawns a guest onto a poller's core under a small quantum,
 * then sleeps while two runs are cut short and ends with the pollers
 * waiting, so a last cut finds only them. With @p shared, pollers
 * 0-1 share core 0 and pollers 2-3 core 2.
 */
std::uint64_t
wakeScheduleDigest(Wait wait, std::uint64_t seed, bool shared = false)
{
    RecordingBackend be;
    SchedulerParams params;
    params.quantum = 1'000;
    Scheduler sched(&be, 5, params);
    std::array<int, 4> wakes{};
    bool stop = false;
    std::array<SimThread *, 4> pollers{};
    auto poller = [&](std::size_t i) {
        return [&, i](ThreadApi api) -> Task {
            const Tick poll = i % 2 ? 50 : 100;
            while (!stop) {
                if (wakes[i] == 0) {
                    co_await waitOnce(api, wait, poll);
                    continue;
                }
                --wakes[i];
                co_await api.load(0x1000 * (i + 1));
                co_await api.spin(30 * (i + 1));
            }
        };
    };
    auto guest = [](ThreadApi api) -> Task {
        for (VAddr i = 0; i < 8; ++i) {
            co_await api.load(0x8000 + i * 64);
            co_await api.spin(200);
        }
    };
    Rng rng(seed);
    auto hand_out = [&](ThreadApi api, int n) -> Task {
        for (int k = 0; k < n; ++k) {
            const auto i = static_cast<std::size_t>(rng.below(4));
            ++wakes[i];
            sched.unpark(*pollers[i]);
            if (k == n / 3 || k == 2 * n / 3) {
                sched.spawn("guest", static_cast<CoreId>(rng.below(4)),
                            0, guest);
            }
            co_await api.spin(50 * rng.below(5));
        }
    };
    // Shared: pollers 0-1 and 2-3 pair up on cores 0 and 2.
    auto core_of = [shared](int i) { return shared ? i / 2 * 2 : i; };
    pollers[0] = sched.spawn("p0", core_of(0), 0, poller(0));
    pollers[1] = sched.spawn("p1", core_of(1), 0, poller(1));
    SimThread *writer =
        sched.spawn("writer", 4, 0, [&](ThreadApi api) -> Task {
            co_await hand_out(api, 60);
            co_await api.spinUntil(20'000);
            co_await api.sleep(20'000);
            co_await hand_out(api, 30);
        });
    pollers[2] = sched.spawn("p2", core_of(2), 0, poller(2));
    pollers[3] = sched.spawn("p3", core_of(3), 0, poller(3));

    std::uint64_t h = 0;
    sched.run(25'013);
    h = fnvMix(h, sched.now());
    sched.runUntilFinished(writer, 33'037);
    h = fnvMix(h, sched.now());
    sched.runUntilFinished(writer);
    h = fnvMix(h, sched.now());
    sched.run(sched.now() + 1'234);
    h = fnvMix(h, sched.now());
    stop = true;
    for (SimThread *t : pollers)
        sched.unpark(*t);
    sched.run();
    EXPECT_TRUE(sched.allFinished());
    return fnvMix(h, scheduleDigest(be, sched));
}

TEST_F(SimTest, ParkedPollersKeepSeededWakeSchedules)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        for (bool shared : {false, true}) {
            EXPECT_EQ(wakeScheduleDigest(Wait::park, seed, shared),
                      wakeScheduleDigest(Wait::spin, seed, shared))
                << "seed " << seed << (shared ? ", shared" : "");
        }
    }
}

// Oversubscribed cores: idle loaders modelled on PlacerCrew's share
// core 0 under the quantum hand-over, while a controller on core 1
// writes their modes, spawns onto their core and the driver cuts runs
// short. With the default parameters loader i polls until
// k·poll > quantum, yields, and after the switch penalty the core
// goes to the lowest-id waiter: two 100-cycle loaders hold core 0
// for [0, 3'100] and [3'600, 6'700], then again from 7'200.

/** What a shared-core loader does next (PlacerCrew's modes). */
enum class LoaderMode
{
    idle,
    work,
    nap,  //!< blocks off the core, as on I/O
    stop
};

/** One controller action: at tick @p at, set loader @p loader to
 *  @p mode, or spawn one more idle loader onto core 0 (loader -1). */
struct CoreWrite
{
    Tick at;
    int loader;
    LoaderMode mode = LoaderMode::idle;
};

/** One oversubscribed-core schedule. */
struct CoreCase
{
    SchedulerParams params;
    /** Poll interval of each idle loader on core 0, in spawn order. */
    std::vector<Tick> polls;
    /** Controller script, in tick order. */
    std::vector<Tick> cuts;
    std::vector<CoreWrite> writes;
    /** Add a noise-style thread on core 0 that sleeps between
     *  bursts, so core 0 is never all idle loaders. */
    bool noise = false;
    /** Bursts of a busy noise-style thread on core 0: loads and spins
     *  past the quantum, each burst followed by a sleep; it finishes
     *  after its last sleep. 0 for none. */
    int busy = 0;
};

/**
 * Run @p c with its loaders waiting by @p wait: the driver cuts the
 * run at each of the case's ticks, then runs until the controller's
 * script is done, cuts once more with only the loaders left, and
 * finally stops every loader. @p ctl_first spawns the controller
 * before the loaders, so its writes tie with the loaders' polls on
 * the other side of the thread-id order. When @p off_tree is given,
 * the controller records there, before each write, whether core 0's
 * polls were off the event tree.
 */
std::uint64_t
coreScheduleDigest(const CoreCase &c, Wait wait, bool ctl_first,
                   std::vector<bool> *off_tree = nullptr)
{
    RecordingBackend be;
    Scheduler sched(&be, 2, c.params);
    // Stable addresses: the loaders' coroutines read their modes.
    std::array<LoaderMode, 8> modes{};
    std::vector<SimThread *> loaders;
    bool stop = false;
    auto loader = [&](std::size_t i, Tick poll) {
        return [&modes, i, poll, wait](ThreadApi api) -> Task {
            for (;;) {
                switch (modes[i]) {
                  case LoaderMode::stop:
                    co_return;
                  case LoaderMode::work:
                    co_await api.load(0x1000 * (i + 1));
                    co_await api.spin(200);
                    break;
                  case LoaderMode::nap:
                    co_await api.sleep(700);
                    break;
                  case LoaderMode::idle:
                    co_await waitOnce(api, wait, poll);
                    break;
                }
            }
        };
    };
    auto spawn_loader = [&](Tick poll) {
        const std::size_t i = loaders.size();
        loaders.push_back(sched.spawn("loader" + std::to_string(i), 0,
                                      0, loader(i, poll)));
    };
    SimThread *ctl = nullptr;
    auto spawn_ctl = [&] {
        ctl = sched.spawn("ctl", 1, 0, [&](ThreadApi api) -> Task {
            for (const CoreWrite &w : c.writes) {
                co_await api.spinUntil(w.at);
                if (off_tree)
                    off_tree->push_back(sched.offTree(0));
                if (w.loader < 0) {
                    spawn_loader(80);
                    continue;
                }
                const auto i = static_cast<std::size_t>(w.loader);
                modes[i] = w.mode;
                sched.unpark(*loaders[i]);
            }
        });
    };
    if (ctl_first)
        spawn_ctl();
    for (Tick poll : c.polls)
        spawn_loader(poll);
    if (!ctl_first)
        spawn_ctl();
    if (c.noise) {
        sched.spawn("noise", 0, 0, [&stop](ThreadApi api) -> Task {
            while (!stop) {
                for (VAddr i = 0; i < 4; ++i) {
                    co_await api.load(0x9000 + i * 64);
                    co_await api.spin(150);
                }
                co_await api.sleep(2'500);
            }
        });
    }
    if (c.busy > 0) {
        sched.spawn("busy", 0, 0, [bursts = c.busy](ThreadApi api) -> Task {
            for (int b = 0; b < bursts; ++b) {
                for (VAddr i = 0; i < 14; ++i) {
                    co_await api.load(0xa000 + i * 64);
                    co_await api.spin(150);
                }
                co_await api.sleep(1'800);
            }
        });
    }

    // A cut must leave every thread and mode where polling would.
    std::uint64_t h = 0;
    for (Tick cut : c.cuts) {
        sched.run(cut);
        h = fnvMix(h, sched.now());
        for (const auto &t : sched.threads()) {
            h = fnvMix(h, t->now);
            h = fnvMix(h, t->opsExecuted);
        }
        for (LoaderMode m : modes)
            h = fnvMix(h, static_cast<std::uint64_t>(m));
    }
    sched.runUntilFinished(ctl);
    h = fnvMix(h, sched.now());
    sched.run(sched.now() + 4'321);
    h = fnvMix(h, sched.now());
    stop = true;
    for (std::size_t i = 0; i < loaders.size(); ++i) {
        modes[i] = LoaderMode::stop;
        sched.unpark(*loaders[i]);
    }
    sched.run();
    EXPECT_TRUE(sched.allFinished());
    return fnvMix(h, scheduleDigest(be, sched));
}

/** Both thread-id orders of controller and loaders, folded. */
std::uint64_t
coreScheduleDigest(const CoreCase &c, Wait wait)
{
    return fnvMix(coreScheduleDigest(c, wait, false),
                  coreScheduleDigest(c, wait, true));
}

/** The pinned oversubscribed-core schedules (see the grid above). */
std::vector<CoreCase>
pinnedCoreCases()
{
    using M = LoaderMode;
    std::vector<CoreCase> cases(14);
    // Two loaders: cuts mid-turn (the poll at 1'600), inside the
    // switch penalty (the switch-in at 3'600), again mid-turn, and
    // at loader 0's switch-in at 7'200, where the controller writes.
    cases[0].polls = {100, 100};
    cases[0].cuts = {1'550, 3'200, 3'650, 7'150};
    cases[0].writes = {{7'200, 0, M::work}, {7'900, 0, M::idle},
                       {15'000, 1, M::work}, {15'150, 1, M::idle}};
    // Mode writes mid-quantum (tied with loader 0's poll at 1'500),
    // at loader 0's preempt poll (3'100) and inside the penalty
    // window (3'300).
    cases[1].polls = {100, 100};
    cases[1].writes = {{1'500, 0, M::work}, {2'300, 0, M::idle}};
    cases[2].polls = {100, 100};
    cases[2].writes = {{3'100, 0, M::work}, {4'000, 0, M::idle},
                       {9'000, 1, M::work}, {9'300, 1, M::idle}};
    cases[3].polls = {100, 100};
    cases[3].writes = {{3'300, 1, M::work}, {3'800, 1, M::idle},
                       {3'900, 0, M::work}, {5'000, 0, M::idle}};
    // Three loaders: the two lowest ids alternate; waking the third
    // gives it the core at the next hand-over.
    cases[4].polls = {100, 100, 100};
    cases[4].cuts = {3'600, 9'999};
    cases[4].writes = {{12'000, 2, M::work}, {12'500, 2, M::idle},
                       {30'000, 0, M::work}, {30'100, 0, M::idle}};
    // Unequal polls: loader 1 takes 51 polls of 60 cycles per turn
    // (3'600 to 6'660); writes at its poll at 4'200 and in the
    // penalty window after its turn.
    cases[5].polls = {100, 60};
    cases[5].cuts = {5'000};
    cases[5].writes = {{4'200, 0, M::work}, {4'800, 0, M::idle},
                       {6'900, 1, M::work}, {7'000, 1, M::idle}};
    // A poll longer than the quantum: one poll per turn.
    cases[6].polls = {4'000, 100};
    cases[6].cuts = {4'400, 8'100};
    cases[6].writes = {{4'000, 1, M::work}, {4'600, 1, M::idle},
                       {20'000, 0, M::work}, {20'050, 0, M::idle}};
    // No switch penalty: the lower id takes the core at every poll.
    cases[7].params.contextSwitchPenalty = 0;
    cases[7].polls = {100, 100};
    cases[7].cuts = {3'150};
    cases[7].writes = {{3'200, 0, M::work}, {3'500, 0, M::idle},
                       {9'000, 1, M::work}, {9'100, 1, M::idle}};
    // A spawn onto the shared core mid-turn, and a noise-style
    // thread that sleeps on it.
    cases[8].polls = {100, 100};
    cases[8].noise = true;
    cases[8].writes = {{2'000, -1}, {8'000, 2, M::work},
                       {8'200, 2, M::idle}, {11'000, 0, M::work},
                       {11'100, 0, M::idle}};
    // Three loaders, the two lowest napping off the core from 100 to
    // 800, so the highest id holds the core when they wait again.
    cases[9].polls = {100, 100, 100};
    cases[9].cuts = {10'000};
    cases[9].writes = {{100, 0, M::nap},      {100, 1, M::nap},
                       {800, 0, M::idle},     {800, 1, M::idle},
                       {20'000, 0, M::work}, {20'100, 0, M::idle}};
    // A busy thread takes turns with one loader: loader 0 polls over
    // [0, 3'100], [7'200, 10'300] and, while the busy thread sleeps,
    // [11'200, 14'300]. Mode writes and cuts land inside those turns
    // (8'000 ties with a poll), and at 12'600 the loader naps.
    cases[10].polls = {100};
    cases[10].busy = 6;
    cases[10].cuts = {1'750, 9'050, 13'333};
    cases[10].writes = {{8'000, 0, M::work},   {8'650, 0, M::idle},
                        {12'345, 0, M::work},  {12'500, 0, M::idle},
                        {12'600, 0, M::nap},   {13'100, 0, M::idle},
                        {25'010, 0, M::work},  {25'300, 0, M::idle}};
    // Two loaders and a busy thread: the loaders win every hand-over
    // on thread id, so the busy thread waits with its first op
    // pending until they stop. A spawn lands inside loader 1's turn
    // [3'600, 6'700], the spawned loader is woken, and at 16'020
    // loader 0 naps inside its own turn [14'400, 17'500].
    cases[11].polls = {100, 100};
    cases[11].busy = 4;
    cases[11].cuts = {2'222, 8'888};
    cases[11].writes = {{5'050, -1},          {9'000, 2, M::work},
                        {9'400, 2, M::idle},  {16'020, 0, M::nap},
                        {16'700, 0, M::idle}, {30'000, 1, M::work},
                        {30'200, 1, M::idle}};
    // The busy thread's one burst ends at 11'200; its sleep ends, and
    // the thread finishes, at 13'000 inside loader 0's turn
    // [11'200, 14'300], after which loader 0 has the core alone until
    // a spawn at 16'000 gives it a waiter again. The first cut also
    // lands inside that turn.
    cases[12].polls = {100};
    cases[12].busy = 1;
    cases[12].cuts = {12'345, 17'777};
    cases[12].writes = {{16'000, -1},
                        {20'000, 0, M::work},
                        {20'100, 0, M::idle}};
    // A 60-cycle poll under a short quantum, a spawn and runs cut
    // inside turns, and the busy thread finishing inside a turn.
    cases[13].params.quantum = 2'000;
    cases[13].polls = {60};
    cases[13].busy = 2;
    cases[13].cuts = {1'030, 4'321, 9'990};
    cases[13].writes = {{500, 0, M::nap},     {1'300, 0, M::idle},
                        {6'060, 0, M::work},  {6'200, 0, M::idle},
                        {14'000, -1},         {22'000, 1, M::work},
                        {22'050, 1, M::idle}};
    return cases;
}

// Produced by the polling code, where every poll on a shared core is
// a scheduler step.
TEST_F(SimTest, OversubscribedCorePin)
{
    const std::vector<CoreCase> cases = pinnedCoreCases();
    const std::array<std::uint64_t, 14> want = {
        0xf8d4e6cfec32fcb3ULL, 0xdc2cdaef610c8f34ULL,
        0x6a3d9f8a5c12204dULL, 0xc6e0e066df8aef10ULL,
        0x39a54ebf6817cf20ULL, 0xd9b8e1079a03e5f7ULL,
        0xea6145498a0ce6b0ULL, 0xe24133e2fce190d9ULL,
        0xff8ff93ad7d87273ULL, 0x201189ab3e8c50d6ULL,
        0x1c2b588542054b7dULL, 0xe5f11c7fd5746015ULL,
        0x71fb6360720a6216ULL, 0xd654cba4fbfe87cdULL,
    };
    for (std::size_t i = 0; i < cases.size(); ++i) {
        std::array<std::vector<bool>, 2> off_tree;
        EXPECT_EQ(fnvMix(coreScheduleDigest(cases[i], Wait::park, false,
                                            &off_tree[0]),
                         coreScheduleDigest(cases[i], Wait::park, true,
                                            &off_tree[1])),
                  want[i])
            << "case " << i;
        if (i != 4)
            continue;
        // Loader 2 never gets the core, so its first op, a spin, stays
        // pending and the core cannot park. Its loaders' turns batch
        // all the same, also after the writes to loader 2: at 30'000
        // loader 0 is inside its turn [28'800, 31'900].
        for (const std::vector<bool> &off : off_tree) {
            ASSERT_EQ(off.size(), cases[i].writes.size());
            EXPECT_TRUE(off[2]);
        }
    }
}

/**
 * A seeded oversubscribed-core schedule: two or three loaders with
 * mixed polls, a spawn onto their core, mode writes and cuts on a
 * 10-cycle grid, and varied penalty and quantum (a zero penalty
 * among them). One seed in four adds a noise thread.
 */
CoreCase
seededCoreCase(std::uint64_t seed)
{
    static constexpr std::array<Tick, 5> polls = {100, 60, 50, 40,
                                                  3'500};
    static constexpr std::array<Tick, 4> penalties = {500, 500, 130,
                                                      0};
    static constexpr std::array<Tick, 3> quanta = {3'000, 1'000, 250};
    Rng rng(seed);
    CoreCase c;
    c.params.contextSwitchPenalty = penalties[rng.below(4)];
    c.params.quantum = quanta[rng.below(3)];
    c.polls.resize(2 + rng.below(2));
    for (Tick &poll : c.polls)
        poll = polls[rng.below(polls.size())];
    c.noise = rng.below(4) == 0;
    int loaders = static_cast<int>(c.polls.size());
    Tick at = 0;
    for (int i = 0; i < 24; ++i) {
        at += 10 * rng.below(400);
        if (i == 8) {
            c.writes.push_back({at, -1});
            ++loaders;
            continue;
        }
        static constexpr std::array<LoaderMode, 4> modes = {
            LoaderMode::idle, LoaderMode::idle, LoaderMode::work,
            LoaderMode::nap};
        c.writes.push_back({at, static_cast<int>(rng.below(loaders)),
                            modes[rng.below(modes.size())]});
    }
    Tick cut = 0;
    for (int i = 0; i < 3; ++i) {
        cut += 10 * rng.below(2'000) + 1;
        c.cuts.push_back(cut);
    }
    return c;
}

TEST_F(SimTest, ParkedCoresKeepSeededSchedules)
{
    for (const CoreCase &c : pinnedCoreCases()) {
        EXPECT_EQ(coreScheduleDigest(c, Wait::park),
                  coreScheduleDigest(c, Wait::spin));
    }
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const CoreCase c = seededCoreCase(seed);
        EXPECT_EQ(coreScheduleDigest(c, Wait::park),
                  coreScheduleDigest(c, Wait::spin))
            << "seed " << seed;
    }
    // The same cores shared with a busy thread, which finishes after
    // one to six bursts, inside a loader's turn or not.
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        CoreCase c = seededCoreCase(seed);
        c.busy = 1 + static_cast<int>(seed % 6);
        EXPECT_EQ(coreScheduleDigest(c, Wait::park),
                  coreScheduleDigest(c, Wait::spin))
            << "busy seed " << seed;
    }
}

TEST_F(SimTest, EventTimeBeyondKeyRangePanics)
{
    Scheduler sched(&backend, 1);
    sched.spawn("t", 0, 0, [](ThreadApi api) -> Task {
        co_await api.spinUntil(Tick{1} << 63);
    });
    EXPECT_THROW(sched.run(), std::logic_error);
}

TEST(EventTreeTest, MatchesLinearScanWithTiesToLowerId)
{
    EventTree tree;
    EXPECT_EQ(tree.next(), -1);
    std::vector<std::uint64_t> keys;
    Rng rng(11);
    for (int step = 0; step < 5'000; ++step) {
        // Ids appear gradually (growing the tree) and keys come from
        // a small range, so ties are common.
        const auto id = static_cast<std::size_t>(
            rng.below(std::min<std::size_t>(keys.size() + 2, 40)));
        const std::uint64_t key =
            rng.chance(0.1) ? EventTree::none : rng.below(8);
        if (id >= keys.size())
            keys.resize(id + 1, EventTree::none);
        keys[id] = key;
        tree.set(static_cast<int>(id), key);

        int want = -1;
        std::uint64_t best = EventTree::none;
        for (std::size_t i = 0; i < keys.size(); ++i) {
            if (keys[i] < best) {
                best = keys[i];
                want = static_cast<int>(i);
            }
        }
        ASSERT_EQ(tree.next(), want) << "step " << step;
    }
}

TEST_F(SimTest, SpawnMidSimulationStartsAtCurrentTime)
{
    Scheduler sched(&backend, 2);
    SimThread *late = nullptr;
    SimThread *first =
        sched.spawn("first", 0, 0, [&](ThreadApi api) -> Task {
            co_await api.spin(5'000);
        });
    sched.runUntilFinished(first);
    late = sched.spawn("late", 1, 0, [](ThreadApi api) -> Task {
        co_await api.spin(10);
    });
    sched.run();
    EXPECT_GE(late->now, 5'000u);
}

TEST_F(SimTest, RunUntilTickStopsEarly)
{
    Scheduler sched(&backend, 1);
    SimThread *t = sched.spawn("t", 0, 0, [](ThreadApi api) -> Task {
        for (;;)
            co_await api.spin(100);
    });
    sched.run(5'000);
    EXPECT_FALSE(t->finished);
    EXPECT_GE(sched.now(), 4'900u);
    EXPECT_LE(sched.now(), 5'200u);
}

TEST_F(SimTest, RunUntilFinishedWaitsForTheLastThread)
{
    Scheduler sched(&backend, 3);
    auto spinner = [](Tick total) {
        return [total](ThreadApi api) -> Task {
            co_await api.spin(total);
        };
    };
    // Finish order differs from the list order: the wait must not end
    // when the first listed thread finishes, nor when any one does.
    SimThread *slow = sched.spawn("slow", 0, 0, spinner(3'000));
    SimThread *fast = sched.spawn("fast", 1, 0, spinner(1'000));
    SimThread *idler = sched.spawn("idler", 2, 0,
                                   [](ThreadApi api) -> Task {
                                       for (;;)
                                           co_await api.spin(100);
                                   });
    const std::vector<const SimThread *> both{fast, slow};
    sched.runUntilFinished(both);
    EXPECT_TRUE(fast->finished);
    EXPECT_TRUE(slow->finished);
    EXPECT_FALSE(idler->finished);
    // It stops right after the slow thread's last resume, not at the
    // first event past it.
    EXPECT_GE(sched.now(), 3'000u);
    EXPECT_LT(sched.now(), 3'100u);
}

TEST_F(SimTest, IdleSchedulerReportsNoWork)
{
    Scheduler sched(&backend, 1);
    EXPECT_FALSE(sched.stepOne());
    sched.spawn("t", 0, 0, [](ThreadApi api) -> Task {
        co_await api.spin(1);
    });
    sched.run();
    EXPECT_TRUE(sched.allFinished());
    EXPECT_FALSE(sched.stepOne());
}

TEST_F(SimTest, InvalidCorePinningIsFatal)
{
    Scheduler sched(&backend, 2);
    EXPECT_THROW(sched.spawn("bad", 7, 0,
                             [](ThreadApi api) -> Task {
                                 co_await api.spin(1);
                             }),
                 std::runtime_error);
}

TEST(SchedulerConstruction, RejectsBadArguments)
{
    RecordingBackend be;
    EXPECT_THROW(Scheduler(nullptr, 1), std::runtime_error);
    EXPECT_THROW(Scheduler(&be, 0), std::runtime_error);
}

} // namespace
} // namespace csim
