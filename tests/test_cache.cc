/**
 * @file
 * Unit tests for the set-associative cache structure and the machine
 * configuration validation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <thread>
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

    // A full 4-way set: the duplicate check covers every way, not
    // only the last filled or the MRU one.
    Cache wide("wide", CacheGeometry{4 * 4 * lineBytes, 4});
    for (PAddr way = 0; way < 4; ++way)
        wide.insert(way * 4 * lineBytes, Mesi::shared, nullptr);
    for (PAddr way = 0; way < 4; ++way) {
        EXPECT_THROW(wide.insert(way * 4 * lineBytes, Mesi::shared,
                                 nullptr),
                     std::logic_error)
            << "way " << way;
    }
    EXPECT_EQ(wide.occupancy(), 4u);
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

/** Every replacement policy x index function, for the sweeps below. */
const ReplPolicy allPolicies[] = {ReplPolicy::lru, ReplPolicy::plru,
                                  ReplPolicy::random};
const IndexFn allIndexFns[] = {IndexFn::linear, IndexFn::xorFold,
                               IndexFn::remap, IndexFn::mirage};

/**
 * A new cache holds nothing, even when its line storage is a block
 * the allocator hands back from a cache just destroyed with every
 * way valid: the first cache fills every set with the frames the
 * second one then probes.
 */
TEST(CacheFresh, HoldsNothingUnderEveryPolicyAndIndexFunction)
{
    // A power-of-two set count (mask path) and the 200-set modulo one.
    for (const CacheGeometry geom :
         {CacheGeometry{64 * 8 * lineBytes, 8},
          CacheGeometry{200 * 4 * lineBytes, 4}}) {
        for (const ReplPolicy policy : allPolicies) {
            for (const IndexFn fn : allIndexFns) {
                SCOPED_TRACE(msgCat(geom.numSets(), " sets, ",
                                    replPolicyName(policy), " x ",
                                    indexFnName(fn)));
                const auto make = [&] {
                    return Cache("c", geom, policy, 7,
                                 std::make_unique<IndexFunction>(
                                     fn, geom.numSets(), 11));
                };
                const PAddr frames =
                    PAddr{2} * geom.numSets() * geom.assoc;
                {
                    Cache used = make();
                    for (PAddr frame = 0; frame < frames; ++frame)
                        used.insert(frame * lineBytes, Mesi::modified,
                                    nullptr);
                }
                const Cache c = make();
                EXPECT_EQ(c.occupancy(), 0u);
                std::size_t visited = 0;
                c.forEachLine([&visited](const CacheLine &) {
                    ++visited;
                });
                EXPECT_EQ(visited, 0u);
                // Probe the used cache's frames, and on until every
                // set has been looked up.
                std::vector<bool> probed(geom.numSets(), false);
                std::size_t left = geom.numSets();
                for (PAddr frame = 0; frame < frames || left > 0;
                     ++frame) {
                    ASSERT_LT(frame, PAddr{1} << 20);
                    const PAddr a = frame * lineBytes;
                    EXPECT_EQ(c.find(a), nullptr) << "address " << a;
                    const unsigned set = c.setIndex(a);
                    if (!probed[set]) {
                        probed[set] = true;
                        --left;
                    }
                }
            }
        }
    }
}

/**
 * Pins which line every insert displaces. Seeded fills, hits,
 * invalidations, walks (which unmark the sets they find empty) and
 * clears run over every policy x index function, so sets are filled,
 * emptied, unmarked and refilled; each insert's Victim (valid flag
 * and address) is hashed. The constants were produced by the
 * value-initialised line array that preceded lazy set construction.
 */
/**
 * A destroyed cache's line array goes to the process's free list, and
 * the next cache with the same line count takes it back, under ASan
 * too (whose allocator would otherwise hand out a fresh block). That
 * is what makes CacheFresh above read a used array.
 */
TEST(CacheRecycle, SameLineCountTakesTheFreedArray)
{
    // A private L1, the paper's 12 MB LLC (12288 sets) and a modulo
    // geometry; each followed by a cache of another size, which must
    // not take the freed array.
    for (const CacheGeometry geom :
         {CacheGeometry{32 * 1024, 8},
          CacheGeometry{12 * 1024 * 1024, 16},
          CacheGeometry{200 * 4 * lineBytes, 4}}) {
        SCOPED_TRACE(msgCat(geom.numSets(), " sets"));
        std::uintptr_t freed = 0;
        {
            Cache used("used", geom);
            freed = reinterpret_cast<std::uintptr_t>(
                &used.insert(0, Mesi::modified, nullptr));
        }
        const Cache other("other",
                          CacheGeometry{geom.sizeBytes * 2, geom.assoc});
        Cache fresh("fresh", geom);
        EXPECT_EQ(fresh.find(0), nullptr);
        EXPECT_EQ(fresh.occupancy(), 0u);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(
                      &fresh.insert(0, Mesi::shared, nullptr)),
                  freed);
    }
}

/**
 * The free list is the process's, not a thread's: the runner starts
 * new worker threads for every batch of jobs, and a machine built on
 * one must take the arrays that a machine on another thread left.
 */
TEST(CacheRecycle, ArrayFreedOnOneThreadIsTakenOnAnother)
{
    const CacheGeometry geom{12 * 1024 * 1024, 16};
    std::uintptr_t freed = 0;
    std::thread([&] {
        Cache used("used", geom);
        freed = reinterpret_cast<std::uintptr_t>(
            &used.insert(0, Mesi::modified, nullptr));
    }).join();
    Cache fresh("fresh", geom);
    EXPECT_EQ(fresh.occupancy(), 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(
                  &fresh.insert(0, Mesi::shared, nullptr)),
              freed);
}

/**
 * An array of 2 MiB or more starts on a 2 MiB boundary, so the huge
 * pages its touched sets fall in do not depend on where the block was
 * placed; set 0's first way is the array's first line.
 */
TEST(CacheRecycle, LargeArraysStartOnAHugePageBoundary)
{
    constexpr std::uintptr_t hugePage = std::uintptr_t{2} << 20;
    for (const CacheGeometry geom :
         {CacheGeometry{12 * 1024 * 1024, 16},
          CacheGeometry{4 * 1024 * 1024, 16},
          CacheGeometry{6 * 1024 * 1024 + 200 * 16 * lineBytes, 16}}) {
        SCOPED_TRACE(msgCat(geom.numSets(), " sets"));
        Cache c("llc", geom);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(
                      &c.insert(0, Mesi::shared, nullptr)) %
                      hugePage,
                  0u);
    }
}

TEST(CacheVictimPin, WalkClearRefillDisplacesTheSameLines)
{
    const auto mix = [](std::uint64_t h, std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
        return h;
    };
    const std::uint64_t expected[3][4] = {
        {0x9c6e8b1fa2f4a181ULL, 0x7fddb86092a9d9feULL,
         0x354395dbd6ea5459ULL, 0xe6af055a4a6a1b02ULL},
        {0x8f0a328be21a1bceULL, 0xa2404fe6b9460815ULL,
         0x92d349a37b4ed4daULL, 0x373f139df9275161ULL},
        {0x03a09b26acabaff3ULL, 0x946b1b100fef6915ULL,
         0xadba43b0b88a9b39ULL, 0x027d7cc40df239e1ULL},
    };
    // 48 sets x 4 ways, ~3 addresses per set: sets overflow often.
    const CacheGeometry geom{48 * 4 * lineBytes, 4};
    for (std::size_t p = 0; p < std::size(allPolicies); ++p) {
        for (std::size_t f = 0; f < std::size(allIndexFns); ++f) {
            const ReplPolicy policy = allPolicies[p];
            const IndexFn fn = allIndexFns[f];
            SCOPED_TRACE(msgCat(replPolicyName(policy), " x ",
                                indexFnName(fn)));
            Cache c("c", geom, policy, 5,
                    std::make_unique<IndexFunction>(
                        fn, geom.numSets(), 13));
            Rng rng(77 + p * 4 + f);
            std::vector<PAddr> pool;
            for (int i = 0; i < 150; ++i)
                pool.push_back(rng.below(1 << 16) * lineBytes);
            std::uint64_t h = 0xcbf29ce484222325ULL;
            std::uint64_t fills = 0;
            std::uint64_t evictions = 0;
            for (int step = 0; step < 4000; ++step) {
                const PAddr a = pool[rng.below(pool.size())];
                const auto op = rng.below(100);
                if (op < 55) {
                    if (CacheLine *line = c.find(a)) {
                        c.touch(*line);
                    } else {
                        Victim victim;
                        c.insert(a, Mesi::shared, &victim);
                        ++fills;
                        evictions += victim.valid;
                        h = mix(h, victim.valid);
                        h = mix(h, victim.valid ? victim.line.addr : 0);
                    }
                } else if (op < 93) {
                    c.invalidate(a);
                } else if (op < 99) {
                    std::uint64_t walked = 0;
                    c.forEachLine([&walked](const CacheLine &l) {
                        walked = walked * 31 + l.addr;
                    });
                    h = mix(h, walked);
                } else {
                    c.clear();
                }
            }
            // The run must exercise both paths of insert().
            EXPECT_GT(evictions, 0u);
            EXPECT_LT(evictions, fills);
            EXPECT_EQ(h, expected[p][f])
                << "0x" << std::hex << h;
        }
    }
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
