/**
 * @file
 * Tests for the protocol variants of paper §II-B and §VIII-E: the
 * MOESI owned state, the MESIF forward state, and snoop-based
 * lookup. The paper argues the covert channel is protocol-agnostic;
 * these tests pin down each variant's transitions and the channel's
 * behaviour under them.
 */

#include <gtest/gtest.h>

#include "channel/experiment.hh"
#include "mem/memory_system.hh"

namespace csim
{
namespace
{

SystemConfig
quietConfig(CoherenceFlavor flavor = CoherenceFlavor::mesi,
            CoherenceLookup lookup = CoherenceLookup::directory)
{
    SystemConfig cfg;
    cfg.flavor = flavor;
    cfg.lookup = lookup;
    cfg.timing.jitterSd = 0.0;
    cfg.timing.longTailProb = 0.0;
    cfg.timing.contentionMean = 0.0;
    cfg.timing.numaInterleave = false;
    cfg.seed = 13;
    return cfg;
}

constexpr PAddr lineB = 0x5000'0000;

TEST(Names, FlavorAndLookup)
{
    EXPECT_STREQ(coherenceFlavorName(CoherenceFlavor::mesi), "MESI");
    EXPECT_STREQ(coherenceFlavorName(CoherenceFlavor::mesif),
                 "MESIF");
    EXPECT_STREQ(coherenceFlavorName(CoherenceFlavor::moesi),
                 "MOESI");
    EXPECT_STREQ(coherenceLookupName(CoherenceLookup::directory),
                 "directory");
    EXPECT_STREQ(coherenceLookupName(CoherenceLookup::snoop),
                 "snoop");
    EXPECT_STREQ(mesiName(Mesi::owned), "O");
    EXPECT_STREQ(mesiName(Mesi::forward), "F");
}

/* ------------------------------ MOESI ------------------------------ */

TEST(Moesi, ReadOfModifiedCreatesOwnedWithoutWriteback)
{
    MemorySystem mem(quietConfig(CoherenceFlavor::moesi));
    mem.load(0, lineB, 0);
    mem.store(0, lineB, 100);  // M at core 0
    const auto wb_before = mem.stats().writebacks;
    const auto res = mem.load(1, lineB, 200);
    // The owner services the read, keeps the dirty line in O state
    // and performs no writeback (paper §II-B).
    EXPECT_EQ(res.servedBy, ServedBy::localOwner);
    EXPECT_EQ(mem.inspect(lineB).priv[0], Mesi::owned);
    EXPECT_EQ(mem.inspect(lineB).priv[1], Mesi::shared);
    EXPECT_EQ(mem.stats().writebacks, wb_before);
    EXPECT_EQ(mem.checkInvariants(), "");
}

TEST(Moesi, OwnedServicesFurtherReads)
{
    MemorySystem mem(quietConfig(CoherenceFlavor::moesi));
    mem.load(0, lineB, 0);
    mem.store(0, lineB, 1'000);
    mem.load(1, lineB, 2'000);  // M -> O
    // A third reader must also be serviced by the O owner: the LLC
    // copy is stale.
    const auto res = mem.load(2, lineB, 3'000);
    EXPECT_EQ(res.servedBy, ServedBy::localOwner);
    EXPECT_EQ(res.latency,
              mem.config().timing.localExclLat());
    EXPECT_EQ(mem.inspect(lineB).priv[0], Mesi::owned);
    EXPECT_EQ(mem.checkInvariants(), "");
}

TEST(Moesi, RemoteReadOfOwnedForwards)
{
    MemorySystem mem(quietConfig(CoherenceFlavor::moesi));
    mem.load(0, lineB, 0);
    mem.store(0, lineB, 100);
    mem.load(1, lineB, 200);  // O + S on socket 0
    const auto res = mem.load(6, lineB, 300);
    EXPECT_EQ(res.servedBy, ServedBy::remoteOwner);
    EXPECT_EQ(mem.inspect(lineB).priv[0], Mesi::owned);
    EXPECT_EQ(mem.checkInvariants(), "");
}

TEST(Moesi, OwnedEvictionWritesBack)
{
    SystemConfig cfg = quietConfig(CoherenceFlavor::moesi);
    MemorySystem mem(cfg);
    mem.load(0, lineB, 0);
    mem.store(0, lineB, 100);
    mem.load(1, lineB, 200);  // core 0 now O (dirty)
    const auto wb_before = mem.stats().writebacks;
    const unsigned l2_sets = cfg.l2.numSets();
    for (unsigned i = 1; i <= cfg.l2.assoc; ++i) {
        mem.load(0, lineB + static_cast<PAddr>(i) * l2_sets * 64,
                 1'000 * i);
    }
    EXPECT_EQ(mem.inspect(lineB).priv[0], Mesi::invalid);
    EXPECT_GT(mem.stats().writebacks, wb_before);
    // With the O copy gone, the LLC (now clean) serves reads.
    const auto res = mem.load(2, lineB, 100'000);
    EXPECT_EQ(res.servedBy, ServedBy::localLlc);
    EXPECT_EQ(mem.checkInvariants(), "");
}

TEST(Moesi, StoreOnOwnedUpgradesToModified)
{
    MemorySystem mem(quietConfig(CoherenceFlavor::moesi));
    mem.load(0, lineB, 0);
    mem.store(0, lineB, 100);
    mem.load(1, lineB, 200);  // O at 0, S at 1
    mem.store(0, lineB, 300); // O -> M, invalidate the S copy
    EXPECT_EQ(mem.inspect(lineB).priv[0], Mesi::modified);
    EXPECT_EQ(mem.inspect(lineB).priv[1], Mesi::invalid);
    EXPECT_EQ(mem.checkInvariants(), "");
}

TEST(Moesi, StoreOnSharedInvalidatesOwnedAndKeepsDirty)
{
    MemorySystem mem(quietConfig(CoherenceFlavor::moesi));
    mem.load(0, lineB, 0);
    mem.store(0, lineB, 100);
    mem.load(1, lineB, 200);  // O at 0, S at 1
    mem.store(1, lineB, 300); // S upgrade: O copy invalidated
    EXPECT_EQ(mem.inspect(lineB).priv[0], Mesi::invalid);
    EXPECT_EQ(mem.inspect(lineB).priv[1], Mesi::modified);
    // The displaced dirty data is accounted at the LLC.
    mem.flush(3, lineB, 400);
    EXPECT_EQ(mem.checkInvariants(), "");
}

TEST(Moesi, FlushWritesBackOwned)
{
    MemorySystem mem(quietConfig(CoherenceFlavor::moesi));
    mem.load(0, lineB, 0);
    mem.store(0, lineB, 100);
    mem.load(1, lineB, 200);
    const auto res = mem.flush(2, lineB, 300);
    EXPECT_EQ(res.latency, mem.config().timing.flushBase +
                               mem.config().timing.flushDirtyExtra);
    EXPECT_EQ(mem.inspect(lineB).priv[0], Mesi::invalid);
    EXPECT_EQ(mem.checkInvariants(), "");
}

TEST(Moesi, NoOwnedStateUnderPlainMesi)
{
    MemorySystem mem(quietConfig(CoherenceFlavor::mesi));
    mem.load(0, lineB, 0);
    mem.store(0, lineB, 100);
    mem.load(1, lineB, 200);
    // MESI: the modified owner downgrades to S with a writeback.
    EXPECT_EQ(mem.inspect(lineB).priv[0], Mesi::shared);
    EXPECT_GT(mem.stats().writebacks, 0u);
}

/* ------------------------------ MESIF ------------------------------ */

TEST(Mesif, ForwardGrantedOnExclusiveDowngrade)
{
    MemorySystem mem(quietConfig(CoherenceFlavor::mesif));
    mem.load(0, lineB, 0);   // E at core 0
    mem.load(1, lineB, 500); // forward: requester becomes F
    EXPECT_EQ(mem.inspect(lineB).priv[0], Mesi::shared);
    EXPECT_EQ(mem.inspect(lineB).priv[1], Mesi::forward);
    EXPECT_EQ(mem.checkInvariants(), "");
}

TEST(Mesif, AtMostOneForwarderGlobally)
{
    MemorySystem mem(quietConfig(CoherenceFlavor::mesif));
    mem.load(0, lineB, 0);
    mem.load(1, lineB, 500);   // F at 1
    mem.load(6, lineB, 1'000); // cross-socket fetch: F migrates
    EXPECT_EQ(mem.inspect(lineB).priv[1], Mesi::shared);
    EXPECT_EQ(mem.inspect(lineB).priv[6], Mesi::forward);
    EXPECT_EQ(mem.checkInvariants(), "");
}

TEST(Mesif, ForwardIsCleanAndFlushCostsNothingExtra)
{
    MemorySystem mem(quietConfig(CoherenceFlavor::mesif));
    mem.load(0, lineB, 0);
    mem.load(1, lineB, 500);
    const auto res = mem.flush(2, lineB, 1'000);
    EXPECT_EQ(res.latency, mem.config().timing.flushBase);
}

TEST(Mesif, StoreOnForwardUpgrades)
{
    MemorySystem mem(quietConfig(CoherenceFlavor::mesif));
    mem.load(0, lineB, 0);
    mem.load(1, lineB, 500);  // F at 1, S at 0
    mem.store(1, lineB, 1'000);
    EXPECT_EQ(mem.inspect(lineB).priv[1], Mesi::modified);
    EXPECT_EQ(mem.inspect(lineB).priv[0], Mesi::invalid);
    EXPECT_EQ(mem.checkInvariants(), "");
}

TEST(Mesif, LatencyProfileMatchesMesi)
{
    // The paper: F "simply serves to improve performance" and does
    // not change the observable band structure in a 2-socket
    // machine with inclusive LLCs.
    MemorySystem mesi(quietConfig(CoherenceFlavor::mesi));
    MemorySystem mesif(quietConfig(CoherenceFlavor::mesif));
    for (MemorySystem *m : {&mesi, &mesif}) {
        m->load(0, lineB, 0);
        m->load(1, lineB, 500);
    }
    const auto a = mesi.load(2, lineB, 1'000);
    const auto b = mesif.load(2, lineB, 1'000);
    EXPECT_EQ(a.servedBy, b.servedBy);
    EXPECT_EQ(a.latency, b.latency);
}

/* ------------------------------ snoop ------------------------------ */

TEST(Snoop, MissesPayBroadcastOverhead)
{
    const SystemConfig dir_cfg = quietConfig();
    const SystemConfig snp_cfg =
        quietConfig(CoherenceFlavor::mesi, CoherenceLookup::snoop);
    MemorySystem dir(dir_cfg);
    MemorySystem snp(snp_cfg);
    dir.load(0, lineB, 0);
    snp.load(0, lineB, 0);
    const auto a = dir.load(1, lineB, 500);
    const auto b = snp.load(1, lineB, 500);
    EXPECT_EQ(a.servedBy, b.servedBy);
    EXPECT_EQ(b.latency - a.latency, snp_cfg.timing.snoopOverhead);
    // Hits pay nothing extra.
    const auto hit = snp.load(1, lineB, 1'000);
    EXPECT_EQ(hit.latency, snp_cfg.timing.l1Hit);
}

TEST(Snoop, EAndSStatesStillDistinguishable)
{
    // Paper §VIII-E: snoop protocols serve E-state reads from the
    // owning private cache and S-state reads from the shared cache,
    // so the latency asymmetry the channel needs persists.
    SystemConfig cfg =
        quietConfig(CoherenceFlavor::mesi, CoherenceLookup::snoop);
    MemorySystem mem(cfg);
    mem.load(0, lineB, 0);  // E
    const auto e_read = mem.load(1, lineB, 500);
    mem.flush(0, lineB, 1'000);
    mem.load(0, lineB, 1'100);
    mem.load(1, lineB, 1'200);  // S everywhere
    const auto s_read = mem.load(2, lineB, 1'500);
    EXPECT_EQ(e_read.servedBy, ServedBy::localOwner);
    EXPECT_EQ(s_read.servedBy, ServedBy::localLlc);
    EXPECT_GT(e_read.latency, s_read.latency);
}

/* ------------------- channel under every variant ------------------- */

struct VariantCase
{
    CoherenceFlavor flavor;
    CoherenceLookup lookup;
};

class ChannelUnderVariant
    : public ::testing::TestWithParam<VariantCase>
{};

TEST_P(ChannelUnderVariant, CovertChannelStillWorks)
{
    ChannelConfig cfg;
    cfg.system.seed = 4321;
    cfg.system.flavor = GetParam().flavor;
    cfg.system.lookup = GetParam().lookup;
    cfg.scenario = Scenario::lexcC_lshB;
    Rng rng(6);
    const BitString payload = randomBits(rng, 50);
    const ChannelReport rep = runTransmission(cfg, payload);
    EXPECT_TRUE(rep.completed);
    EXPECT_GE(rep.metrics.accuracy, 0.94)
        << coherenceFlavorName(GetParam().flavor) << "/"
        << coherenceLookupName(GetParam().lookup);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, ChannelUnderVariant,
    ::testing::Values(
        VariantCase{CoherenceFlavor::mesi,
                    CoherenceLookup::directory},
        VariantCase{CoherenceFlavor::mesif,
                    CoherenceLookup::directory},
        VariantCase{CoherenceFlavor::moesi,
                    CoherenceLookup::directory},
        VariantCase{CoherenceFlavor::mesi, CoherenceLookup::snoop},
        VariantCase{CoherenceFlavor::moesi,
                    CoherenceLookup::snoop}));

/** Random-op fuzz under each flavor keeps all invariants. */
class VariantFuzz : public ::testing::TestWithParam<int>
{};

TEST_P(VariantFuzz, InvariantsHold)
{
    const int param = GetParam();
    SystemConfig cfg = quietConfig(
        param % 3 == 0   ? CoherenceFlavor::mesi
        : param % 3 == 1 ? CoherenceFlavor::mesif
                         : CoherenceFlavor::moesi,
        param % 2 ? CoherenceLookup::snoop
                  : CoherenceLookup::directory);
    cfg.l1 = CacheGeometry{1024, 2};
    cfg.l2 = CacheGeometry{2 * 1024, 2};
    cfg.llc = CacheGeometry{4 * 1024, 4};
    cfg.seed = static_cast<std::uint64_t>(param) * 31 + 7;
    MemorySystem mem(cfg);
    Rng rng(cfg.seed + 1);
    Tick now = 0;
    for (int i = 0; i < 3'000; ++i) {
        const CoreId core =
            static_cast<CoreId>(rng.below(cfg.numCores()));
        const PAddr addr = lineB + rng.below(40) * 64;
        now += rng.below(250);
        const auto pick = rng.below(10);
        if (pick < 6)
            mem.load(core, addr, now);
        else if (pick < 9)
            mem.store(core, addr, now);
        else
            mem.flush(core, addr, now);
        if (i % 100 == 0) {
            ASSERT_EQ(mem.checkInvariants(), "") << "op " << i;
        }
    }
    EXPECT_EQ(mem.checkInvariants(), "");
}

INSTANTIATE_TEST_SUITE_P(Mix, VariantFuzz, ::testing::Range(0, 12));

/* ------------------------ non-inclusive ------------------------ */

SystemConfig
nonInclusiveConfig()
{
    SystemConfig cfg = quietConfig();
    cfg.inclusivity = Inclusivity::nine;
    return cfg;
}

TEST(NonInclusive, BasicPathsMatchInclusive)
{
    MemorySystem mem(nonInclusiveConfig());
    const auto first = mem.load(0, lineB, 0);
    EXPECT_EQ(first.servedBy, ServedBy::dram);
    EXPECT_EQ(mem.inspect(lineB).priv[0], Mesi::exclusive);
    const auto fwd = mem.load(1, lineB, 10'000);
    EXPECT_EQ(fwd.servedBy, ServedBy::localOwner);
    const auto llc = mem.load(2, lineB, 20'000);
    EXPECT_EQ(llc.servedBy, ServedBy::localLlc);
    const auto remote = mem.load(6, lineB, 30'000);
    EXPECT_EQ(remote.servedBy, ServedBy::remoteLlc);
    EXPECT_EQ(mem.checkInvariants(), "");
}

TEST(NonInclusive, LlcEvictionDoesNotBackInvalidate)
{
    // The defining difference from the inclusive hierarchy: losing
    // the LLC copy leaves the private copy intact.
    SystemConfig cfg = nonInclusiveConfig();
    cfg.l1 = CacheGeometry{2 * 1024, 2};
    cfg.l2 = CacheGeometry{4 * 1024, 2};
    cfg.llc = CacheGeometry{8 * 1024, 2};  // 64 sets
    MemorySystem mem(cfg);
    const unsigned llc_sets = cfg.llc.numSets();
    mem.load(0, lineB, 0);
    // Two conflicting LLC lines displace lineB's LLC data.
    mem.load(1, lineB + static_cast<PAddr>(llc_sets) * 64, 10'000);
    mem.load(1, lineB + static_cast<PAddr>(llc_sets) * 2 * 64,
             20'000);
    EXPECT_FALSE(mem.inspect(lineB).sockets[0].llcHas);
    EXPECT_EQ(mem.inspect(lineB).priv[0], Mesi::exclusive);
    EXPECT_EQ(mem.stats().backInvalidations, 0u);
    // Another core's read is still serviced by the owner forward.
    const auto res = mem.load(2, lineB, 30'000);
    EXPECT_EQ(res.servedBy, ServedBy::localOwner);
    EXPECT_EQ(mem.checkInvariants(), "");
}

TEST(NonInclusive, SharedDataMissSuppliedCacheToCache)
{
    // Paper §VIII-E: with non-inclusive LLCs an S-state block can be
    // absent from the LLC; a sharer then supplies it (at E-like
    // latency), so the channel's bands shift but remain observable.
    SystemConfig cfg = nonInclusiveConfig();
    cfg.l1 = CacheGeometry{2 * 1024, 2};
    cfg.l2 = CacheGeometry{4 * 1024, 2};
    cfg.llc = CacheGeometry{8 * 1024, 2};
    MemorySystem mem(cfg);
    const unsigned llc_sets = cfg.llc.numSets();
    mem.load(0, lineB, 0);
    mem.load(1, lineB, 10'000);  // S at cores 0 and 1
    // Displace the LLC data while the sharers keep their copies.
    mem.load(2, lineB + static_cast<PAddr>(llc_sets) * 64, 20'000);
    mem.load(2, lineB + static_cast<PAddr>(llc_sets) * 2 * 64,
             30'000);
    ASSERT_FALSE(mem.inspect(lineB).sockets[0].llcHas);
    ASSERT_EQ(mem.inspect(lineB).priv[0], Mesi::shared);
    const auto res = mem.load(3, lineB, 40'000);
    EXPECT_EQ(res.servedBy, ServedBy::localOwner);
    EXPECT_EQ(res.latency, cfg.timing.localExclLat());
    EXPECT_EQ(mem.checkInvariants(), "");
}

TEST(NonInclusive, DirtyEvictionWithoutLlcDataWritesToMemory)
{
    SystemConfig cfg = nonInclusiveConfig();
    cfg.l1 = CacheGeometry{1024, 2};
    cfg.l2 = CacheGeometry{2 * 1024, 2};
    cfg.llc = CacheGeometry{4 * 1024, 2};  // 32 sets
    MemorySystem mem(cfg);
    const unsigned llc_sets = cfg.llc.numSets();
    mem.load(0, lineB, 0);
    mem.store(0, lineB, 10'000);  // M at core 0
    // Displace the LLC data copy (no back-invalidation).
    mem.load(1, lineB + static_cast<PAddr>(llc_sets) * 64, 20'000);
    mem.load(1, lineB + static_cast<PAddr>(llc_sets) * 2 * 64,
             30'000);
    ASSERT_EQ(mem.inspect(lineB).priv[0], Mesi::modified);
    // Now force the M line out of core 0's private caches: it must
    // write back straight to memory.
    const auto wb_before = mem.stats().writebacks;
    const unsigned l2_sets = cfg.l2.numSets();
    for (unsigned i = 1; i <= cfg.l2.assoc; ++i) {
        mem.load(0,
                 lineB + static_cast<PAddr>(i) *
                             (static_cast<PAddr>(l2_sets) *
                              llc_sets) * 64,
                 40'000 + i * 10'000);
    }
    EXPECT_EQ(mem.inspect(lineB).priv[0], Mesi::invalid);
    EXPECT_GT(mem.stats().writebacks, wb_before);
    EXPECT_EQ(mem.checkInvariants(), "");
}

TEST(NonInclusive, FlushStillRemovesEverything)
{
    MemorySystem mem(nonInclusiveConfig());
    mem.load(0, lineB, 0);
    mem.load(6, lineB, 10'000);
    mem.flush(3, lineB, 20'000);
    EXPECT_EQ(mem.inspect(lineB).priv[0], Mesi::invalid);
    EXPECT_EQ(mem.inspect(lineB).priv[6], Mesi::invalid);
    EXPECT_EQ(mem.inspect(lineB).presence, 0u);
    const auto res = mem.load(1, lineB, 30'000);
    EXPECT_EQ(res.servedBy, ServedBy::dram);
    EXPECT_EQ(mem.checkInvariants(), "");
}

TEST(NonInclusive, ChannelStillWorks)
{
    // Paper §VIII-E: "changing the cache inclusion property alone
    // may not be sufficient to eliminate the timing channels".
    ChannelConfig cfg;
    cfg.system.seed = 4242;
    cfg.system.inclusivity = Inclusivity::nine;
    cfg.scenario = Scenario::lexcC_lshB;
    Rng rng(7);
    const BitString payload = randomBits(rng, 50);
    const ChannelReport rep = runTransmission(cfg, payload);
    EXPECT_TRUE(rep.completed);
    EXPECT_GE(rep.metrics.accuracy, 0.9);
}

TEST(NonInclusive, FuzzKeepsInvariants)
{
    SystemConfig cfg = nonInclusiveConfig();
    cfg.l1 = CacheGeometry{1024, 2};
    cfg.l2 = CacheGeometry{2 * 1024, 2};
    cfg.llc = CacheGeometry{4 * 1024, 4};
    MemorySystem mem(cfg);
    Rng rng(12345);
    Tick now = 0;
    for (int i = 0; i < 4'000; ++i) {
        const CoreId core =
            static_cast<CoreId>(rng.below(cfg.numCores()));
        const PAddr addr = lineB + rng.below(48) * 64;
        now += rng.below(250);
        const auto pick = rng.below(10);
        if (pick < 6)
            mem.load(core, addr, now);
        else if (pick < 9)
            mem.store(core, addr, now);
        else
            mem.flush(core, addr, now);
        if (i % 100 == 0) {
            ASSERT_EQ(mem.checkInvariants(), "") << "op " << i;
        }
    }
    EXPECT_EQ(mem.checkInvariants(), "");
}

/* ------------------------- 3+ sockets ------------------------- */

TEST(MultiSocket, ThreeSocketReadChainStaysCoherent)
{
    SystemConfig cfg = quietConfig();
    cfg.sockets = 3;
    cfg.coresPerSocket = 4;
    MemorySystem mem(cfg);
    mem.load(0, lineB, 0);            // socket 0: E
    const auto r1 = mem.load(4, lineB, 10'000);  // socket 1
    EXPECT_EQ(r1.servedBy, ServedBy::remoteOwner);
    const auto r2 = mem.load(8, lineB, 20'000);  // socket 2
    EXPECT_EQ(r2.servedBy, ServedBy::remoteLlc);
    EXPECT_EQ(mem.inspect(lineB).presence, 0b111u);
    for (CoreId c : {0, 4, 8})
        EXPECT_EQ(mem.inspect(lineB).priv[c], Mesi::shared);
    EXPECT_EQ(mem.checkInvariants(), "");
    // A store from socket 2 invalidates everything else.
    mem.store(8, lineB, 30'000);
    EXPECT_EQ(mem.inspect(lineB).presence, 0b100u);
    EXPECT_EQ(mem.inspect(lineB).priv[0], Mesi::invalid);
    EXPECT_EQ(mem.checkInvariants(), "");
}

TEST(MultiSocket, MesifForwarderUniqueAcrossThreeSockets)
{
    SystemConfig cfg = quietConfig(CoherenceFlavor::mesif);
    cfg.sockets = 3;
    cfg.coresPerSocket = 4;
    MemorySystem mem(cfg);
    mem.load(0, lineB, 0);
    mem.load(4, lineB, 10'000);   // F lands on socket 1's requester
    mem.load(8, lineB, 20'000);   // F migrates to socket 2
    EXPECT_EQ(mem.inspect(lineB).priv[8], Mesi::forward);
    EXPECT_EQ(mem.inspect(lineB).priv[4], Mesi::shared);
    EXPECT_EQ(mem.checkInvariants(), "");
}

TEST(MultiSocket, FuzzThreeSockets)
{
    SystemConfig cfg = quietConfig(CoherenceFlavor::moesi);
    cfg.sockets = 3;
    cfg.coresPerSocket = 4;
    cfg.l1 = CacheGeometry{1024, 2};
    cfg.l2 = CacheGeometry{2 * 1024, 2};
    cfg.llc = CacheGeometry{4 * 1024, 4};
    MemorySystem mem(cfg);
    Rng rng(99);
    Tick now = 0;
    for (int i = 0; i < 3'000; ++i) {
        const CoreId core =
            static_cast<CoreId>(rng.below(cfg.numCores()));
        const PAddr addr = lineB + rng.below(32) * 64;
        now += rng.below(300);
        const auto pick = rng.below(10);
        if (pick < 6)
            mem.load(core, addr, now);
        else if (pick < 9)
            mem.store(core, addr, now);
        else
            mem.flush(core, addr, now);
        if (i % 100 == 0) {
            ASSERT_EQ(mem.checkInvariants(), "") << "op " << i;
        }
    }
    EXPECT_EQ(mem.checkInvariants(), "");
}

} // namespace
} // namespace csim
