/**
 * @file
 * Replacement-policy unit tests with pinned eviction-order vectors.
 *
 * Each policy is exercised two ways: directly against the
 * ReplacementPolicy interface (hand-computed victim sequences for
 * lru-equivalent access patterns) and through a miniature Cache, so
 * the invalid-way-first rule, the onHit/onFill notification order
 * and the policy seam all face the real insert path. The expected
 * vectors are derived by hand from each policy's definition — if a
 * refactor changes any eviction decision, these tests pin the blast
 * radius.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mem/cache.hh"
#include "mem/index_function.hh"
#include "mem/params.hh"
#include "mem/replacement.hh"

namespace csim
{
namespace
{

/** One-set, 4-way cache with the given policy. */
Cache
tinyCache(ReplPolicy policy, std::uint64_t seed = 7)
{
    return Cache("tiny", CacheGeometry{4 * lineBytes, 4}, policy,
                 seed);
}

PAddr
lineNo(unsigned n)
{
    return static_cast<PAddr>(n) * lineBytes;
}

/**
 * Fill the (single-set) cache with lines 0..3, touch them in the
 * given order, then insert a new line and return which address got
 * displaced.
 */
PAddr
victimAfterTouches(Cache &c, const std::vector<unsigned> &touches,
                   unsigned next)
{
    for (unsigned i = 0; i < 4; ++i)
        c.insert(lineNo(i), Mesi::shared, nullptr);
    for (unsigned t : touches)
        c.touch(*c.find(lineNo(t)));
    Victim v;
    c.insert(lineNo(next), Mesi::shared, &v);
    EXPECT_TRUE(v.valid);
    return v.line.addr;
}

// --- builtin LRU (no policy object) ---------------------------------

TEST(LruOrder, EvictsLeastRecentlyUsed)
{
    {
        Cache c = tinyCache(ReplPolicy::lru);
        // Fill order 0,1,2,3 then touch 0: LRU is 1.
        EXPECT_EQ(victimAfterTouches(c, {0}, 4), lineNo(1));
    }
    {
        Cache c = tinyCache(ReplPolicy::lru);
        // Touch everything in reverse: LRU is 3.
        EXPECT_EQ(victimAfterTouches(c, {3, 2, 1, 0}, 4), lineNo(3));
    }
    {
        Cache c = tinyCache(ReplPolicy::lru);
        // No touches: fill order makes 0 the LRU way.
        EXPECT_EQ(victimAfterTouches(c, {}, 4), lineNo(0));
    }
}

TEST(LruOrder, PinnedEvictionSequence)
{
    // Rolling working set 0..5 over a 4-way set: classic LRU evicts
    // in insertion order.
    Cache c = tinyCache(ReplPolicy::lru);
    for (unsigned i = 0; i < 4; ++i)
        c.insert(lineNo(i), Mesi::shared, nullptr);
    const std::vector<PAddr> expected = {lineNo(0), lineNo(1),
                                         lineNo(2), lineNo(3)};
    for (unsigned i = 0; i < 4; ++i) {
        Victim v;
        c.insert(lineNo(4 + i), Mesi::shared, &v);
        ASSERT_TRUE(v.valid);
        EXPECT_EQ(v.line.addr, expected[i]) << "insert " << i;
    }
}

// --- tree-PLRU ------------------------------------------------------

TEST(PlruOrder, VictimWalksAwayFromRecentTouches)
{
    // 4-way tree-PLRU: root node picks between way-pair {0,1} and
    // {2,3}; each leaf node picks within a pair. All bits start 0 =
    // "victim on the left", so an untouched set victimizes way 0.
    auto plru = ReplacementPolicy::make(ReplPolicy::plru, 1, 4, 0);
    ASSERT_NE(plru, nullptr);
    EXPECT_EQ(plru->victimWay(0), 0u);

    // Touching way 0 flips the root towards the right pair and the
    // left leaf towards way 1: the victim becomes way 2.
    plru->onHit(0, 0);
    EXPECT_EQ(plru->victimWay(0), 2u);

    // Touching way 2 points the root back to the left pair, whose
    // leaf still says "away from 0": victim way 1.
    plru->onHit(0, 2);
    EXPECT_EQ(plru->victimWay(0), 1u);

    // Touch 1: root swings right again; right leaf says away
    // from 2, so way 3.
    plru->onHit(0, 1);
    EXPECT_EQ(plru->victimWay(0), 3u);
}

TEST(PlruOrder, PinnedEvictionSequenceThroughCache)
{
    // Same rolling pattern as the LRU pin. Tree-PLRU only
    // approximates LRU: fills promote ways 0,1,2,3 in order, leaving
    // the tree pointing at way 0; each eviction's fill then swings
    // the root to the other pair, so the walk alternates pairs.
    // Hand-walking the 3-bit tree gives 0, 2, 1, 3 — deliberately
    // different from true LRU's 0, 1, 2, 3.
    Cache c = tinyCache(ReplPolicy::plru);
    for (unsigned i = 0; i < 4; ++i)
        c.insert(lineNo(i), Mesi::shared, nullptr);
    const std::vector<PAddr> expected = {lineNo(0), lineNo(2),
                                         lineNo(1), lineNo(3)};
    for (unsigned i = 0; i < 4; ++i) {
        Victim v;
        c.insert(lineNo(4 + i), Mesi::shared, &v);
        ASSERT_TRUE(v.valid);
        EXPECT_EQ(v.line.addr, expected[i]) << "insert " << i;
    }
}

TEST(PlruOrder, RequiresPowerOfTwoAssoc)
{
    EXPECT_THROW(ReplacementPolicy::make(ReplPolicy::plru, 4, 3, 0),
                 std::logic_error);
}

// --- SRRIP ----------------------------------------------------------

TEST(SrripOrder, ReReferenceIntervalsDecideVictims)
{
    // SRRIP-HP with 2-bit RRPV: fills at 2, hits promote to 0,
    // victim = first way at 3 (aging all ways until one reaches 3).
    auto srrip =
        ReplacementPolicy::make(ReplPolicy::srrip, 1, 4, 0);
    ASSERT_NE(srrip, nullptr);
    for (unsigned w = 0; w < 4; ++w)
        srrip->onFill(0, w);  // all at RRPV 2

    // Promote ways 1 and 3 to RRPV 0. First victim scan ages
    // everyone by 1 (no way at 3 yet), leaving {3,1,3,1}; way 0 is
    // the first at max.
    srrip->onHit(0, 1);
    srrip->onHit(0, 3);
    EXPECT_EQ(srrip->victimWay(0), 0u);

    // The victim scan aged the set to {3,1,3,1} and left it aged.
    // Refilling way 0 (new line, RRPV 2) gives {2,1,3,1}: way 2 is
    // already at max, so it goes next without further aging.
    srrip->onFill(0, 0);
    EXPECT_EQ(srrip->victimWay(0), 2u);
}

TEST(SrripOrder, PinnedEvictionSequenceThroughCache)
{
    // Fill 0..3 (all RRPV 2; fills also touch, but SRRIP's onHit
    // fires only for find()-path hits through Cache::touch after
    // onFill set 2 — the insert path calls onFill last). Then:
    //   hit 0, hit 1 -> RRPV {0,0,2,2}
    //   insert 4: age to {1,1,3,3}, victim way 2 (line 2)
    //   insert 5: way 3 is already at 3 -> victim line 3
    Cache c = tinyCache(ReplPolicy::srrip);
    for (unsigned i = 0; i < 4; ++i)
        c.insert(lineNo(i), Mesi::shared, nullptr);
    c.touch(*c.find(lineNo(0)));
    c.touch(*c.find(lineNo(1)));
    Victim v;
    c.insert(lineNo(4), Mesi::shared, &v);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.line.addr, lineNo(2));
    c.insert(lineNo(5), Mesi::shared, &v);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.line.addr, lineNo(3));
}

// --- random ---------------------------------------------------------

TEST(RandomRepl, DeterministicUnderSeedAndResetRestoresStream)
{
    auto a = ReplacementPolicy::make(ReplPolicy::random, 2, 8, 42);
    auto b = ReplacementPolicy::make(ReplPolicy::random, 2, 8, 42);
    std::vector<unsigned> first;
    for (int i = 0; i < 32; ++i) {
        const unsigned w = a->victimWay(i % 2);
        EXPECT_EQ(w, b->victimWay(i % 2)) << i;
        EXPECT_LT(w, 8u);
        first.push_back(w);
    }
    a->reset();
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(a->victimWay(i % 2),
                  first[static_cast<std::size_t>(i)])
            << i;
}

// --- seam rules shared by all policies ------------------------------

TEST(PolicySeam, InvalidWaysAreFilledBeforeAnyEviction)
{
    for (const ReplPolicy p :
         {ReplPolicy::lru, ReplPolicy::plru, ReplPolicy::random,
          ReplPolicy::srrip}) {
        Cache c = tinyCache(p);
        for (unsigned i = 0; i < 4; ++i) {
            Victim v;
            c.insert(lineNo(i), Mesi::shared, &v);
            EXPECT_FALSE(v.valid)
                << replPolicyName(p) << " insert " << i;
        }
        // Invalidate way holding line 2; the next insert must reuse
        // that slot, not evict a valid line.
        c.invalidate(lineNo(2));
        Victim v;
        c.insert(lineNo(9), Mesi::shared, &v);
        EXPECT_FALSE(v.valid) << replPolicyName(p);
        EXPECT_EQ(c.occupancy(), 4u) << replPolicyName(p);
    }
}

TEST(PolicySeam, LruFactoryKeepsBuiltinFastPath)
{
    EXPECT_EQ(ReplacementPolicy::make(ReplPolicy::lru, 4, 4, 0),
              nullptr);
}

// --- index functions ------------------------------------------------

TEST(IndexFunctions, LinearMatchesBuiltinMapping)
{
    const IndexFunction lin(IndexFn::linear, 192, 0);
    for (std::uint64_t f = 0; f < 4096; ++f)
        EXPECT_EQ(lin.index(f), static_cast<unsigned>(f % 192));
}

TEST(IndexFunctions, AllKindsCoverEverySet)
{
    for (const IndexFn kind :
         {IndexFn::linear, IndexFn::xorFold, IndexFn::remap,
          IndexFn::mirage}) {
        const IndexFunction fn(kind, 64, 0x12345678);
        std::vector<int> hits(64, 0);
        for (std::uint64_t f = 0; f < 64 * 64; ++f) {
            const unsigned s = fn.index(f);
            ASSERT_LT(s, 64u);
            ++hits[s];
        }
        for (unsigned s = 0; s < 64; ++s)
            EXPECT_GT(hits[s], 0)
                << indexFnName(kind) << " set " << s;
    }
}

TEST(IndexFunctions, RekeyChangesTheMapping)
{
    IndexFunction fn(IndexFn::remap, 256, 1);
    std::vector<unsigned> before;
    for (std::uint64_t f = 0; f < 1024; ++f)
        before.push_back(fn.index(f));
    fn.rekey(2);
    int moved = 0;
    for (std::uint64_t f = 0; f < 1024; ++f) {
        if (fn.index(f) != before[static_cast<std::size_t>(f)])
            ++moved;
    }
    // A keyed hash rekey scatters nearly every frame.
    EXPECT_GT(moved, 900);
}

} // namespace
} // namespace csim
