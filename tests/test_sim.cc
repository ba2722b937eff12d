/**
 * @file
 * Unit tests for the simulation engine: coroutine tasks, the
 * virtual-time scheduler, core sharing and the sync primitives.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/random.hh"
#include "sim/event_tree.hh"
#include "sim/memory_backend.hh"
#include "sim/scheduler.hh"
#include "sim/sync.hh"

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
                "t" + std::to_string(i), i % 4, 0,
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
        sched.spawn("t" + std::to_string(i), i % 6, 0,
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

TEST_F(SimTest, StopWhenPredicateStopsRun)
{
    Scheduler sched(&backend, 1);
    int laps = 0;
    sched.spawn("t", 0, 0, [&](ThreadApi api) -> Task {
        for (;;) {
            ++laps;
            co_await api.spin(100);
        }
    });
    sched.run(maxTick, [&] { return laps >= 10; });
    EXPECT_GE(laps, 10);
    EXPECT_LT(laps, 20);
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

TEST(Mailbox, PostAndTakeFifo)
{
    Mailbox<int> box;
    EXPECT_TRUE(box.empty());
    EXPECT_FALSE(box.tryTake().has_value());
    box.post(1);
    box.post(2);
    EXPECT_EQ(box.size(), 2u);
    EXPECT_EQ(box.tryTake().value(), 1);
    EXPECT_EQ(box.tryTake().value(), 2);
    EXPECT_TRUE(box.empty());
}

TEST(AckCounterTest, Bumps)
{
    AckCounter c;
    EXPECT_EQ(c.value(), 0u);
    c.bump();
    c.bump();
    EXPECT_EQ(c.value(), 2u);
}

TEST(SpinBarrierTest, ReleasesWhenAllArrive)
{
    SpinBarrier barrier(2);
    const auto g0 = barrier.arrive();
    EXPECT_FALSE(barrier.passed(g0));
    const auto g1 = barrier.arrive();
    EXPECT_EQ(g0, g1);
    EXPECT_TRUE(barrier.passed(g0));
}

TEST(SyncCoroutines, PollUntilAndBarrierWait)
{
    RecordingBackend be;
    Scheduler sched(&be, 2);
    SpinBarrier barrier(2);
    bool flag = false;
    Tick a_done = 0, b_done = 0;
    SimThread *a =
        sched.spawn("a", 0, 0, [&](ThreadApi api) -> Task {
            co_await barrierWait(api, barrier, 50);
            a_done = api.now();
            co_await pollUntil(api, [&] { return flag; }, 50);
        });
    sched.spawn("b", 1, 0, [&](ThreadApi api) -> Task {
        co_await api.spin(1'000);
        co_await barrierWait(api, barrier, 50);
        b_done = api.now();
        co_await api.spin(2'000);
        flag = true;
    });
    sched.run();
    EXPECT_TRUE(a->finished);
    // a waited at the barrier until b arrived (~tick 1000).
    EXPECT_GE(a_done, 1'000u);
    EXPECT_LE(a_done - std::min(a_done, b_done), 100u);
    // a then waited for the flag set at ~tick 3000.
    EXPECT_GE(a->now, 3'000u);
}

} // namespace
} // namespace csim
