/**
 * @file
 * Unit tests for the set-associative cache structure and the machine
 * configuration validation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "mem/cache.hh"
#include "mem/memory_system.hh"
#include "mem/params.hh"

namespace csim
{
namespace
{

CacheGeometry
smallGeom()
{
    // 4 sets x 2 ways x 64 B lines = 512 B.
    return CacheGeometry{512, 2};
}

TEST(CacheGeometryTest, NumSets)
{
    EXPECT_EQ(smallGeom().numSets(), 4u);
    EXPECT_EQ((CacheGeometry{32 * 1024, 8}).numSets(), 64u);
    // The paper's 12 MB 16-way LLC has a non-power-of-two set count.
    EXPECT_EQ((CacheGeometry{12 * 1024 * 1024, 16}).numSets(),
              12288u);
}

TEST(CacheTest, InsertAndFind)
{
    Cache c("c", smallGeom());
    EXPECT_EQ(c.find(0), nullptr);
    c.insert(0, Mesi::exclusive, nullptr);
    CacheLine *line = c.find(0);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->state, Mesi::exclusive);
    EXPECT_EQ(c.occupancy(), 1u);
}

TEST(CacheTest, SetIndexingIsModulo)
{
    Cache c("c", smallGeom());
    EXPECT_EQ(c.setIndex(0), 0u);
    EXPECT_EQ(c.setIndex(64), 1u);
    EXPECT_EQ(c.setIndex(4 * 64), 0u);
    EXPECT_EQ(c.setIndex(5 * 64), 1u);
}

TEST(CacheTest, LruEvictionPicksOldest)
{
    Cache c("c", smallGeom());
    // Two lines in set 0 fill both ways.
    c.insert(0, Mesi::shared, nullptr);
    c.insert(4 * 64, Mesi::shared, nullptr);
    // Touch the first so the second becomes LRU.
    c.touch(*c.find(0));
    Victim victim;
    c.insert(8 * 64, Mesi::shared, &victim);
    ASSERT_TRUE(victim.valid);
    EXPECT_EQ(victim.line.addr, 4u * 64);
    EXPECT_NE(c.find(0), nullptr);
    EXPECT_EQ(c.find(4 * 64), nullptr);
    EXPECT_NE(c.find(8 * 64), nullptr);
}

TEST(CacheTest, InsertPrefersInvalidWays)
{
    Cache c("c", smallGeom());
    c.insert(0, Mesi::shared, nullptr);
    Victim victim;
    c.insert(4 * 64, Mesi::shared, &victim);
    EXPECT_FALSE(victim.valid);  // free way available, no eviction
}

TEST(CacheTest, VictimCarriesDirectoryState)
{
    Cache c("c", smallGeom());
    CacheLine &line = c.insert(0, Mesi::shared, nullptr);
    line.coreValid = 0b101;
    line.dirty = true;
    c.insert(4 * 64, Mesi::shared, nullptr);
    c.touch(*c.find(4 * 64));
    // Force the set full then displace line 0 (it is LRU).
    Victim victim;
    c.insert(8 * 64, Mesi::shared, &victim);
    ASSERT_TRUE(victim.valid);
    EXPECT_EQ(victim.line.addr, 0u);
    EXPECT_EQ(victim.line.coreValid, 0b101u);
    EXPECT_TRUE(victim.line.dirty);
}

TEST(CacheTest, Invalidate)
{
    Cache c("c", smallGeom());
    c.insert(0, Mesi::modified, nullptr);
    EXPECT_TRUE(c.invalidate(0));
    EXPECT_EQ(c.find(0), nullptr);
    EXPECT_FALSE(c.invalidate(0));
    EXPECT_EQ(c.occupancy(), 0u);
}

TEST(CacheTest, ClearDropsEverything)
{
    Cache c("c", smallGeom());
    for (int i = 0; i < 8; ++i)
        c.insert(static_cast<PAddr>(i) * 64, Mesi::shared, nullptr);
    EXPECT_EQ(c.occupancy(), 8u);
    c.clear();
    EXPECT_EQ(c.occupancy(), 0u);
}

TEST(CacheTest, ForEachLineVisitsValidOnly)
{
    Cache c("c", smallGeom());
    c.insert(0, Mesi::shared, nullptr);
    c.insert(64, Mesi::exclusive, nullptr);
    c.invalidate(0);
    int visits = 0;
    c.forEachLine([&](const CacheLine &line) {
        ++visits;
        EXPECT_EQ(line.addr, 64u);
    });
    EXPECT_EQ(visits, 1);
}

TEST(CacheTest, DoubleInsertPanics)
{
    Cache c("c", smallGeom());
    c.insert(0, Mesi::shared, nullptr);
    EXPECT_THROW(c.insert(0, Mesi::shared, nullptr),
                 std::logic_error);
}

TEST(CacheTest, InsertInvalidStatePanics)
{
    Cache c("c", smallGeom());
    EXPECT_THROW(c.insert(0, Mesi::invalid, nullptr),
                 std::logic_error);
}

TEST(CacheTest, UnalignedFindPanics)
{
    Cache c("c", smallGeom());
    EXPECT_THROW(c.find(3), std::logic_error);
}

/**
 * Differential check of the filled-set walk. The reference is a
 * brute-force slot scan: every address the run ever uses is probed
 * with find(), and the hits, sorted by slot (`lines_` is one
 * set-major array), are the visit sequence of a walk over the whole
 * array. A model of which addresses must be resident cross-checks
 * find() itself. Random insert / invalidate / clear / rekey steps
 * run over every replacement policy x index function; a rekey
 * flushes the cache first, as MemorySystem::rekeyNow does.
 */
TEST(CacheWalk, MatchesBruteForceSlotScan)
{
    // 200 sets: four bitmap words, the last one partial.
    const CacheGeometry geom{200 * 4 * lineBytes, 4};
    for (const ReplPolicy policy :
         {ReplPolicy::lru, ReplPolicy::plru, ReplPolicy::random}) {
        for (const IndexFn fn : {IndexFn::linear, IndexFn::xorFold,
                                 IndexFn::remap, IndexFn::mirage}) {
            SCOPED_TRACE(msgCat(replPolicyName(policy), " x ",
                                indexFnName(fn)));
            Cache c("c", geom, policy, 7,
                    std::make_unique<IndexFunction>(
                        fn, geom.numSets(), 11));
            Rng rng(2024 + static_cast<int>(policy) * 8 +
                    static_cast<int>(fn));
            // ~1.5 addresses per set: sets fill, overflow and empty.
            std::vector<PAddr> pool;
            for (int i = 0; i < 300; ++i)
                pool.push_back(rng.below(1 << 20) * lineBytes);
            std::set<PAddr> model;

            const auto scan = [&] {
                std::vector<const CacheLine *> hits;
                for (const PAddr a : pool) {
                    const CacheLine *l = std::as_const(c).find(a);
                    if (l && std::find(hits.begin(), hits.end(), l) ==
                                 hits.end())
                        hits.push_back(l);
                }
                std::sort(hits.begin(), hits.end(),
                          std::less<const CacheLine *>());
                return hits;
            };
            const auto walk = [&] {
                std::vector<const CacheLine *> seen;
                c.forEachLine([&seen](const CacheLine &l) {
                    seen.push_back(&l);
                });
                return seen;
            };

            for (int step = 0; step < 3000; ++step) {
                const PAddr a = pool[rng.below(pool.size())];
                const auto op = rng.below(100);
                if (op < 52) {
                    if (!c.find(a)) {
                        Victim victim;
                        c.insert(a, Mesi::shared, &victim);
                        if (victim.valid)
                            model.erase(victim.line.addr);
                        model.insert(a);
                    }
                } else if (op < 97) {
                    c.invalidate(a);
                    model.erase(a);
                } else if (op < 98) {
                    c.clear();
                    model.clear();
                } else {
                    std::vector<PAddr> resident;
                    c.forEachLine([&resident](const CacheLine &l) {
                        resident.push_back(l.addr);
                    });
                    for (const PAddr r : resident)
                        c.invalidate(r);
                    model.clear();
                    c.indexFunction()->rekey(rng.next());
                }
                const std::vector<const CacheLine *> expect = scan();
                ASSERT_EQ(walk(), expect) << "step " << step;
                ASSERT_EQ(c.occupancy(), expect.size())
                    << "step " << step;
                std::set<PAddr> found;
                for (const CacheLine *l : expect)
                    found.insert(l->addr);
                ASSERT_EQ(found, model) << "step " << step;
            }
        }
    }
}

TEST(CacheWalk, RemapRekeyEmptiesTheLlcAndLaterFillsAreVisited)
{
    SystemConfig cfg;
    cfg.llcIndex = IndexFn::remap;
    cfg.remapPeriod = 4;
    MemorySystem mem(cfg);
    Tick now = 0;
    for (const PAddr a : {0x1000, 0x2000, 0x3000})
        mem.load(0, a, now += 1'000);
    EXPECT_EQ(mem.llcOf(0).occupancy(), 3u);
    // The fourth op rekeys before it runs; flushing an uncached line
    // then leaves nothing behind.
    mem.flush(0, 0x4000, now += 1'000);
    EXPECT_EQ(mem.llcIndexGeneration(), 1u);
    for (SocketId s = 0; s < cfg.sockets; ++s)
        EXPECT_EQ(mem.llcOf(s).occupancy(), 0u) << "socket " << s;
    mem.load(1, 0x5000, now += 1'000);
    std::vector<PAddr> seen;
    mem.llcOf(0).forEachLine([&seen](const CacheLine &l) {
        seen.push_back(l.addr);
    });
    EXPECT_EQ(seen, std::vector<PAddr>{0x5000});
    EXPECT_EQ(mem.llcOf(0).occupancy(), 1u);
    EXPECT_EQ(mem.checkInvariants(), "");
}

TEST(MesiNames, AllDistinct)
{
    EXPECT_STREQ(mesiName(Mesi::invalid), "I");
    EXPECT_STREQ(mesiName(Mesi::shared), "S");
    EXPECT_STREQ(mesiName(Mesi::exclusive), "E");
    EXPECT_STREQ(mesiName(Mesi::modified), "M");
}

TEST(SystemConfigTest, DefaultsAreValid)
{
    SystemConfig cfg;
    EXPECT_NO_THROW(cfg.validate());
    EXPECT_EQ(cfg.numCores(), 12);
    EXPECT_EQ(cfg.socketOf(0), 0);
    EXPECT_EQ(cfg.socketOf(5), 0);
    EXPECT_EQ(cfg.socketOf(6), 1);
    EXPECT_EQ(cfg.coreOf(1, 2), 8);
}

TEST(SystemConfigTest, RejectsBrokenGeometry)
{
    SystemConfig cfg;
    cfg.l1.sizeBytes = 0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);

    cfg = SystemConfig{};
    cfg.l1.assoc = 0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);

    cfg = SystemConfig{};
    cfg.l2.sizeBytes = cfg.l1.sizeBytes / 2;
    EXPECT_THROW(cfg.validate(), std::runtime_error);

    cfg = SystemConfig{};
    cfg.llc.sizeBytes = cfg.l2.sizeBytes / 2;
    EXPECT_THROW(cfg.validate(), std::runtime_error);

    cfg = SystemConfig{};
    cfg.sockets = 0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);

    cfg = SystemConfig{};
    cfg.coresPerSocket = 64;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

TEST(TimingParamsTest, PathCompositionMatchesPaperBands)
{
    TimingParams t;
    EXPECT_EQ(t.localSharedLat(), 98u);
    EXPECT_EQ(t.localExclLat(), 124u);
    EXPECT_EQ(t.remoteSharedLat(), 186u);
    EXPECT_EQ(t.remoteExclLat(), 252u);
    EXPECT_EQ(t.dramLat(), 355u);
}

TEST(TimingParamsTest, KbpsConversion)
{
    TimingParams t;
    t.clockGhz = 2.67;
    // 1000 bits in 2.67e6 cycles = 1 ms -> 1000 Kbps.
    EXPECT_NEAR(t.kbps(1000, 2'670'000), 1000.0, 1e-6);
    EXPECT_DOUBLE_EQ(t.kbps(1000, 0), 0.0);
}

TEST(AddressHelpers, Alignment)
{
    EXPECT_EQ(lineAlign(0x12345), 0x12340u);
    EXPECT_EQ(pageAlign(0x12345), 0x12000u);
    EXPECT_EQ(pageOffset(0x12345), 0x345u);
}

} // namespace
} // namespace csim
