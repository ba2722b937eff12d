/**
 * @file
 * Unit tests for the OS substrate: physical memory, processes and
 * page tables, KSM deduplication, copy-on-write faults and the
 * kernel's address translation.
 */

#include <gtest/gtest.h>

#include <vector>

#include "os/kernel.hh"

namespace csim
{
namespace
{

SystemConfig
quietConfig()
{
    SystemConfig cfg;
    cfg.timing.jitterSd = 0.0;
    cfg.timing.longTailProb = 0.0;
    cfg.timing.contentionMean = 0.0;
    cfg.timing.numaInterleave = false;
    return cfg;
}

std::vector<std::uint8_t>
patternPage(std::uint8_t seed)
{
    std::vector<std::uint8_t> data(pageBytes);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(seed + i * 7);
    return data;
}

TEST(PhysMemTest, AllocateAndRefcount)
{
    PhysMem pm;
    const PAddr p = pm.allocPage();
    EXPECT_TRUE(pm.isAllocated(p));
    EXPECT_EQ(pm.refCount(p), 1);
    pm.addRef(p);
    EXPECT_EQ(pm.refCount(p), 2);
    pm.release(p);
    EXPECT_TRUE(pm.isAllocated(p));
    pm.release(p);
    EXPECT_FALSE(pm.isAllocated(p));
    EXPECT_EQ(pm.refCount(p), 0);
}

TEST(PhysMemTest, PagesAreDistinctAndAligned)
{
    PhysMem pm;
    const PAddr a = pm.allocPage();
    const PAddr b = pm.allocPage();
    EXPECT_NE(a, b);
    EXPECT_EQ(pageAlign(a), a);
    EXPECT_EQ(pageAlign(b), b);
    EXPECT_EQ(pm.livePages(), 2u);
}

TEST(PhysMemTest, ZeroPagesHashEqualAndCompareEqual)
{
    PhysMem pm;
    const PAddr a = pm.allocPage();
    const PAddr b = pm.allocPage();
    EXPECT_EQ(pm.contents(a), nullptr);
    EXPECT_EQ(pm.contentHash(a), pm.contentHash(b));
    EXPECT_TRUE(pm.samePage(a, b));
}

TEST(PhysMemTest, ContentsAndHash)
{
    PhysMem pm;
    const PAddr a = pm.allocPage();
    const PAddr b = pm.allocPage();
    const PAddr c = pm.allocPage();
    pm.setContents(a, patternPage(1));
    pm.setContents(b, patternPage(1));
    pm.setContents(c, patternPage(2));
    EXPECT_EQ(pm.contentHash(a), pm.contentHash(b));
    EXPECT_NE(pm.contentHash(a), pm.contentHash(c));
    EXPECT_TRUE(pm.samePage(a, b));
    EXPECT_FALSE(pm.samePage(a, c));
    ASSERT_NE(pm.contents(a), nullptr);
    EXPECT_EQ((*pm.contents(a))[3], patternPage(1)[3]);
}

TEST(PhysMemTest, CachedHashFollowsWrites)
{
    // Each page's hash is cached; setContents and write drop it.
    PhysMem pm;
    const PAddr a = pm.allocPage();
    const PAddr b = pm.allocPage();
    const std::uint64_t zero = pm.contentHash(a);
    pm.setContents(a, patternPage(1));
    EXPECT_NE(pm.contentHash(a), zero);
    pm.setContents(b, patternPage(2));
    EXPECT_NE(pm.contentHash(b), pm.contentHash(a));
    pm.setContents(b, patternPage(1));
    EXPECT_EQ(pm.contentHash(b), pm.contentHash(a));
    const std::uint8_t flipped =
        static_cast<std::uint8_t>(patternPage(1)[7] ^ 0xff);
    pm.write(b, 7, {flipped});
    EXPECT_NE(pm.contentHash(b), pm.contentHash(a));
    pm.write(a, 7, {flipped});
    EXPECT_EQ(pm.contentHash(b), pm.contentHash(a));
}

TEST(PhysMemTest, PartialWriteUpdatesZeroPage)
{
    PhysMem pm;
    const PAddr a = pm.allocPage();
    pm.write(a, 100, {1, 2, 3});
    ASSERT_NE(pm.contents(a), nullptr);
    EXPECT_EQ((*pm.contents(a))[100], 1);
    EXPECT_EQ((*pm.contents(a))[102], 3);
    EXPECT_EQ((*pm.contents(a))[99], 0);
    // An all-zero written page still compares equal to a fresh page.
    const PAddr b = pm.allocPage();
    EXPECT_FALSE(pm.samePage(a, b));
}

TEST(PhysMemTest, CrossPageWritePanics)
{
    PhysMem pm;
    const PAddr a = pm.allocPage();
    EXPECT_THROW(pm.write(a, pageBytes - 1, {1, 2}),
                 std::logic_error);
}

TEST(ProcessTest, MmapTranslate)
{
    PhysMem pm;
    Process p(0, "p", pm);
    const VAddr base = p.mmap(3 * pageBytes);
    EXPECT_EQ(pageAlign(base), base);
    const PAddr pa = p.translate(base + 5000);
    EXPECT_EQ(pageOffset(pa), pageOffset(static_cast<PAddr>(
                                  base + 5000)));
    // Different virtual pages map to different physical pages.
    EXPECT_NE(pageAlign(p.translate(base)),
              pageAlign(p.translate(base + pageBytes)));
    EXPECT_EQ(p.lookup(base + 4 * pageBytes), nullptr);
}

TEST(ProcessTest, DistinctProcessesGetDistinctPages)
{
    PhysMem pm;
    Process a(0, "a", pm);
    Process b(1, "b", pm);
    const VAddr va = a.mmap(pageBytes);
    const VAddr vb = b.mmap(pageBytes);
    EXPECT_NE(a.translate(va), b.translate(vb));
}

TEST(ProcessTest, WriteDataSpansPages)
{
    PhysMem pm;
    Process p(0, "p", pm);
    const VAddr base = p.mmap(2 * pageBytes);
    std::vector<std::uint8_t> data(pageBytes + 100, 0xab);
    p.writeData(base + 50, data);
    const PAddr first = pageAlign(p.translate(base));
    const PAddr second = pageAlign(p.translate(base + pageBytes));
    EXPECT_EQ((*pm.contents(first))[50], 0xab);
    EXPECT_EQ((*pm.contents(second))[149], 0xab);
    EXPECT_EQ((*pm.contents(second))[150], 0);
}

TEST(ProcessTest, MadviseMarksMergeable)
{
    PhysMem pm;
    Process p(0, "p", pm);
    const VAddr base = p.mmap(2 * pageBytes);
    p.madviseMergeable(base, pageBytes);
    EXPECT_TRUE(p.lookup(base)->mergeable);
    EXPECT_FALSE(p.lookup(base + pageBytes)->mergeable);
}

TEST(ProcessTest, MapPhysicalShares)
{
    PhysMem pm;
    Process a(0, "a", pm);
    Process b(1, "b", pm);
    const PAddr page = pm.allocPage();
    const VAddr va = a.mapPhysical({page}, false);
    const VAddr vb = b.mapPhysical({page}, false);
    EXPECT_EQ(pageAlign(a.translate(va)), page);
    EXPECT_EQ(pageAlign(b.translate(vb)), page);
    EXPECT_EQ(pm.refCount(page), 3);
    EXPECT_FALSE(a.lookup(va)->writable);
}

TEST(ProcessTest, LookupMissesOutsideTheMappedPages)
{
    PhysMem pm;
    Process p(0, "p", pm);
    const VAddr base = p.mmap(3 * pageBytes);
    // Below the first mmap and past the last page.
    for (const VAddr va : {VAddr{0}, VAddr{0x1000}, base - 1,
                           base + 3 * pageBytes, ~VAddr{0}}) {
        EXPECT_EQ(p.lookup(va), nullptr) << "vaddr " << va;
    }
    EXPECT_NE(p.lookup(base), nullptr);
    EXPECT_NE(p.lookup(base + 3 * pageBytes - 1), nullptr);
    EXPECT_THROW(p.translate(base + 3 * pageBytes), std::logic_error);
}

TEST(ProcessTest, RemapKeepsTheEntrySlot)
{
    PhysMem pm;
    Process p(0, "p", pm);
    const VAddr base = p.mmap(2 * pageBytes);
    const PageMapping *before = p.lookup(base + pageBytes + 8);
    PageMapping m = *before;
    const PAddr fresh = pm.allocPage();
    m.paddr = fresh;
    m.writable = false;
    m.cow = true;
    p.remap(base + pageBytes, m);
    const PageMapping *after = p.lookup(base + pageBytes);
    EXPECT_EQ(after, before);
    EXPECT_EQ(after->paddr, fresh);
    EXPECT_TRUE(after->cow);
    EXPECT_THROW(p.remap(base + 2 * pageBytes, m), std::logic_error);
}

TEST(ProcessTest, ForEachPageVisitsMappedPagesInAscendingOrder)
{
    PhysMem pm;
    Process p(0, "p", pm);
    const VAddr a = p.mmap(3 * pageBytes);
    const VAddr b = p.mapPhysical({pm.allocPage()}, false);
    const VAddr c = p.mmap(pageBytes);
    std::vector<VAddr> seen;
    p.forEachPage([&](VAddr vpage, const PageMapping &m) {
        EXPECT_EQ(p.lookup(vpage), &m);
        seen.push_back(vpage);
    });
    EXPECT_EQ(seen, (std::vector<VAddr>{a, a + pageBytes,
                                        a + 2 * pageBytes, b, c}));
}

struct KernelTest : public ::testing::Test
{
    KernelTest() : mem(quietConfig()), kernel(mem) {}

    MemorySystem mem;
    Kernel kernel;
};

TEST_F(KernelTest, MapSharedRegionGivesOnePhysicalCopy)
{
    Process &a = kernel.createProcess("a");
    Process &b = kernel.createProcess("b");
    const auto [va, vb] = kernel.mapSharedRegion(a, b, pageBytes);
    EXPECT_EQ(a.translate(va), b.translate(vb));
    EXPECT_FALSE(a.lookup(va)->writable);
    EXPECT_FALSE(a.lookup(va)->cow);
    EXPECT_EQ(kernel.phys().refCount(pageAlign(a.translate(va))), 2);
}

TEST_F(KernelTest, KsmMergesIdenticalMergeablePages)
{
    Process &a = kernel.createProcess("a");
    Process &b = kernel.createProcess("b");
    const VAddr va = a.mmap(pageBytes);
    const VAddr vb = b.mmap(pageBytes);
    a.writeData(va, patternPage(9));
    b.writeData(vb, patternPage(9));
    a.madviseMergeable(va, pageBytes);
    b.madviseMergeable(vb, pageBytes);
    EXPECT_NE(a.translate(va), b.translate(vb));
    const auto events = kernel.runKsmScan();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].victimPid, b.pid());
    EXPECT_EQ(a.translate(va), b.translate(vb));
    // Both mappings are read-only COW now.
    EXPECT_TRUE(a.lookup(va)->cow);
    EXPECT_TRUE(b.lookup(vb)->cow);
    EXPECT_FALSE(a.lookup(va)->writable);
    EXPECT_EQ(kernel.phys().refCount(
                  pageAlign(a.translate(va))), 2);
    EXPECT_EQ(kernel.ksm().stats().pagesMerged, 1u);
}

TEST_F(KernelTest, KsmIgnoresDifferentContentAndUnadvisedPages)
{
    Process &a = kernel.createProcess("a");
    Process &b = kernel.createProcess("b");
    const VAddr va = a.mmap(pageBytes);
    const VAddr vb = b.mmap(pageBytes);
    a.writeData(va, patternPage(1));
    b.writeData(vb, patternPage(2));  // different contents
    a.madviseMergeable(va, pageBytes);
    b.madviseMergeable(vb, pageBytes);
    // A third pair with identical contents but no madvise.
    const VAddr vc = a.mmap(pageBytes);
    const VAddr vd = b.mmap(pageBytes);
    a.writeData(vc, patternPage(3));
    b.writeData(vd, patternPage(3));
    EXPECT_TRUE(kernel.runKsmScan().empty());
    EXPECT_NE(a.translate(vc), b.translate(vd));
}

TEST_F(KernelTest, KsmMergesThreeWays)
{
    Process &a = kernel.createProcess("a");
    Process &b = kernel.createProcess("b");
    Process &c = kernel.createProcess("c");
    std::vector<VAddr> vs;
    for (Process *p : {&a, &b, &c}) {
        const VAddr v = p->mmap(pageBytes);
        p->writeData(v, patternPage(4));
        p->madviseMergeable(v, pageBytes);
        vs.push_back(v);
    }
    EXPECT_EQ(kernel.runKsmScan().size(), 2u);
    EXPECT_EQ(a.translate(vs[0]), b.translate(vs[1]));
    EXPECT_EQ(b.translate(vs[1]), c.translate(vs[2]));
    EXPECT_EQ(kernel.phys().refCount(
                  pageAlign(a.translate(vs[0]))), 3);
}

TEST_F(KernelTest, KsmScanIsIdempotent)
{
    Process &a = kernel.createProcess("a");
    Process &b = kernel.createProcess("b");
    const VAddr va = a.mmap(pageBytes);
    const VAddr vb = b.mmap(pageBytes);
    a.writeData(va, patternPage(5));
    b.writeData(vb, patternPage(5));
    a.madviseMergeable(va, pageBytes);
    b.madviseMergeable(vb, pageBytes);
    EXPECT_EQ(kernel.runKsmScan().size(), 1u);
    EXPECT_TRUE(kernel.runKsmScan().empty());
    EXPECT_EQ(kernel.ksm().stats().scans, 2u);
}

TEST_F(KernelTest, CowFaultSplitsMergedPage)
{
    SchedulerParams sp;
    Scheduler sched(&kernel, mem.config().numCores(), sp);
    Process &a = kernel.createProcess("a");
    Process &b = kernel.createProcess("b");
    const VAddr va = a.mmap(pageBytes);
    const VAddr vb = b.mmap(pageBytes);
    a.writeData(va, patternPage(6));
    b.writeData(vb, patternPage(6));
    a.madviseMergeable(va, pageBytes);
    b.madviseMergeable(vb, pageBytes);
    kernel.runKsmScan();
    ASSERT_EQ(a.translate(va), b.translate(vb));

    // Process b writes to the merged page: COW fault splits it.
    Tick store_latency = 0;
    SimThread *t = kernel.spawnThread(
        sched, "writer", 0, b, [&](ThreadApi api) -> Task {
            store_latency = co_await api.store(vb + 128);
        });
    sched.runUntilFinished(t);
    EXPECT_NE(a.translate(va), b.translate(vb));
    EXPECT_TRUE(b.lookup(vb)->writable);
    EXPECT_FALSE(b.lookup(vb)->cow);
    // The fault cost is visible in the store latency.
    EXPECT_GE(store_latency, mem.config().timing.cowFaultLat);
    EXPECT_EQ(kernel.stats().cowFaults, 1u);
    EXPECT_EQ(kernel.ksm().stats().pagesUnmerged, 1u);
    // Contents were copied, except the written byte's line.
    const PAddr new_page = pageAlign(b.translate(vb));
    EXPECT_EQ((*kernel.phys().contents(new_page))[5],
              patternPage(6)[5]);
}

TEST_F(KernelTest, SplitPageCanRemerge)
{
    SchedulerParams sp;
    Scheduler sched(&kernel, mem.config().numCores(), sp);
    Process &a = kernel.createProcess("a");
    Process &b = kernel.createProcess("b");
    const VAddr va = a.mmap(pageBytes);
    const VAddr vb = b.mmap(pageBytes);
    a.writeData(va, patternPage(7));
    b.writeData(vb, patternPage(7));
    a.madviseMergeable(va, pageBytes);
    b.madviseMergeable(vb, pageBytes);
    kernel.runKsmScan();
    SimThread *t = kernel.spawnThread(
        sched, "writer", 0, b, [&](ThreadApi api) -> Task {
            co_await api.store(vb);
        });
    sched.runUntilFinished(t);
    EXPECT_NE(a.translate(va), b.translate(vb));
    // Restore identical contents; the next scan re-merges.
    b.writeData(vb, patternPage(7));
    EXPECT_EQ(kernel.runKsmScan().size(), 1u);
    EXPECT_EQ(a.translate(va), b.translate(vb));
}

TEST_F(KernelTest, SegfaultsAreFatal)
{
    SchedulerParams sp;
    Scheduler sched(&kernel, mem.config().numCores(), sp);
    Process &a = kernel.createProcess("a");
    SimThread *t = kernel.spawnThread(
        sched, "bad", 0, a, [&](ThreadApi api) -> Task {
            co_await api.load(0xdead0000);
        });
    EXPECT_THROW(sched.runUntilFinished(t), std::runtime_error);
}

TEST_F(KernelTest, StoreToReadOnlyNonCowIsFatal)
{
    SchedulerParams sp;
    Scheduler sched(&kernel, mem.config().numCores(), sp);
    Process &a = kernel.createProcess("a");
    Process &b = kernel.createProcess("b");
    const auto [va, vb] = kernel.mapSharedRegion(a, b, pageBytes);
    (void)vb;
    SimThread *t = kernel.spawnThread(
        sched, "bad", 0, a, [&, va = va](ThreadApi api) -> Task {
            co_await api.store(va);
        });
    EXPECT_THROW(sched.runUntilFinished(t), std::runtime_error);
}

TEST_F(KernelTest, UnboundThreadPanics)
{
    SchedulerParams sp;
    Scheduler sched(&kernel, mem.config().numCores(), sp);
    // Spawned directly on the scheduler, never bound in the kernel.
    SimThread *t = sched.spawn("stray", 0, 99,
                               [](ThreadApi api) -> Task {
                                   co_await api.load(0x1000);
                               });
    EXPECT_THROW(sched.runUntilFinished(t), std::logic_error);

    // Straight through the backend: a tid below the highest bound
    // one, past it, and negative.
    Process &p = kernel.createProcess("p");
    const VAddr va = p.mmap(pageBytes);
    kernel.bindThread(5, p.pid());
    EXPECT_NO_THROW(kernel.load(5, 0, va, 0));
    for (const ThreadId tid : {0, 4, 6, 1000, invalidThread}) {
        EXPECT_THROW(kernel.load(tid, 0, va, 0), std::logic_error)
            << "tid " << tid;
    }
    EXPECT_THROW(kernel.bindThread(invalidThread, p.pid()),
                 std::runtime_error);
}

TEST_F(KernelTest, LoadsThroughTranslationReachTheHierarchy)
{
    SchedulerParams sp;
    Scheduler sched(&kernel, mem.config().numCores(), sp);
    Process &a = kernel.createProcess("a");
    const VAddr va = a.mmap(pageBytes);
    ServedBy first = ServedBy::none, second = ServedBy::none;
    SimThread *t = kernel.spawnThread(
        sched, "t", 0, a, [&](ThreadApi api) -> Task {
            co_await api.load(va);
            first = api.lastServed();
            co_await api.load(va);
            second = api.lastServed();
        });
    sched.runUntilFinished(t);
    EXPECT_EQ(first, ServedBy::dram);
    EXPECT_EQ(second, ServedBy::l1);
}

TEST_F(KernelTest, KsmGuardUnmergesFlushedPages)
{
    SchedulerParams sp;
    Scheduler sched(&kernel, mem.config().numCores(), sp);
    Process &a = kernel.createProcess("a");
    Process &b = kernel.createProcess("b");
    const VAddr va = a.mmap(pageBytes);
    const VAddr vb = b.mmap(pageBytes);
    a.writeData(va, patternPage(21));
    b.writeData(vb, patternPage(21));
    a.madviseMergeable(va, pageBytes);
    b.madviseMergeable(vb, pageBytes);
    kernel.runKsmScan();
    ASSERT_EQ(a.translate(va), b.translate(vb));

    KsmGuardParams params;
    params.flushThreshold = 10;
    params.window = 1'000'000;
    KsmGuard &guard = kernel.enableKsmGuard(params);

    // A flush+reload prober (the spy's signature access pattern).
    SimThread *prober = kernel.spawnThread(
        sched, "prober", 0, b, [&](ThreadApi api) -> Task {
            for (int i = 0; i < 30; ++i) {
                co_await api.flush(vb);
                co_await api.spin(2'000);
                co_await api.load(vb);
            }
        });
    sched.runUntilFinished(prober);
    EXPECT_EQ(guard.pagesUnmerged(), 1u);
    // The parties no longer share physical memory.
    EXPECT_NE(a.translate(va), b.translate(vb));
    // Quarantine: re-scanning does not re-merge.
    EXPECT_TRUE(kernel.runKsmScan().empty());
    EXPECT_NE(a.translate(va), b.translate(vb));
    EXPECT_TRUE(b.lookup(vb)->writable);
}

TEST_F(KernelTest, KsmGuardIgnoresSlowFlushRates)
{
    SchedulerParams sp;
    Scheduler sched(&kernel, mem.config().numCores(), sp);
    Process &a = kernel.createProcess("a");
    Process &b = kernel.createProcess("b");
    const VAddr va = a.mmap(pageBytes);
    const VAddr vb = b.mmap(pageBytes);
    a.writeData(va, patternPage(22));
    b.writeData(vb, patternPage(22));
    a.madviseMergeable(va, pageBytes);
    b.madviseMergeable(vb, pageBytes);
    kernel.runKsmScan();

    KsmGuardParams params;
    params.flushThreshold = 10;
    params.window = 10'000;  // flushes below land in new windows
    KsmGuard &guard = kernel.enableKsmGuard(params);
    SimThread *slow = kernel.spawnThread(
        sched, "slow", 0, b, [&](ThreadApi api) -> Task {
            for (int i = 0; i < 30; ++i) {
                co_await api.flush(vb);
                co_await api.spin(20'000);
            }
        });
    sched.runUntilFinished(slow);
    EXPECT_EQ(guard.pagesUnmerged(), 0u);
    EXPECT_EQ(a.translate(va), b.translate(vb));
}

TEST_F(KernelTest, UnmergePageSplitsAllSharers)
{
    Process &a = kernel.createProcess("a");
    Process &b = kernel.createProcess("b");
    Process &c = kernel.createProcess("c");
    std::vector<VAddr> vs;
    for (Process *p : {&a, &b, &c}) {
        const VAddr v = p->mmap(pageBytes);
        p->writeData(v, patternPage(23));
        p->madviseMergeable(v, pageBytes);
        vs.push_back(v);
    }
    kernel.runKsmScan();
    const PAddr merged = pageAlign(a.translate(vs[0]));
    EXPECT_EQ(kernel.phys().refCount(merged), 3);
    const int touched = kernel.unmergePage(merged, false);
    EXPECT_EQ(touched, 3);
    EXPECT_NE(a.translate(vs[0]), b.translate(vs[1]));
    EXPECT_NE(b.translate(vs[1]), c.translate(vs[2]));
    EXPECT_EQ(kernel.phys().refCount(merged), 1);
    // Without quarantine the pages stay mergeable: a re-scan merges
    // them again.
    EXPECT_EQ(kernel.runKsmScan().size(), 2u);
}

TEST(MachineTest, ComposesAndRuns)
{
    Machine m(quietConfig());
    Process &p = m.kernel.createProcess("p");
    const VAddr va = p.mmap(pageBytes);
    SimThread *t = m.kernel.spawnThread(
        m.sched, "t", 0, p, [va](ThreadApi api) -> Task {
            co_await api.load(va);
            co_await api.flush(va);
            co_await api.load(va);
        });
    m.sched.runUntilFinished(t);
    EXPECT_TRUE(t->finished);
    EXPECT_EQ(m.mem.stats().dramAccesses, 2u);
    EXPECT_EQ(m.mem.checkInvariants(), "");
}

} // namespace
} // namespace csim
