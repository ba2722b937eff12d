/**
 * @file
 * Tests for the self-profiler: span nesting and path aggregation,
 * the disabled no-op guarantee, post-hoc phase recording, the
 * deterministic sampling stride, cross-thread merging, the snapshot
 * exporters, and — the load-bearing property — bit-identity of
 * simulator outputs with profiling on vs off.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "mem/memory_system.hh"
#include "prof/export.hh"
#include "prof/profiler.hh"
#include "runner/json_sink.hh"

namespace csim
{
namespace
{

/** Enable + reset around each test; restore disabled afterwards. */
class ProfTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Profiler::setEnabled(true);
        Profiler::instance().reset();
    }

    void
    TearDown() override
    {
        Profiler::setCaptureTracks(false);
        Profiler::setEnabled(false);
        Profiler::instance().reset();
    }
};

TEST_F(ProfTest, DisabledSpansRecordNothing)
{
    Profiler::setEnabled(false);
    {
        ScopedSpan outer("outer");
        ScopedSpan inner("inner");
        profRecord("posthoc", 10, 20);
    }
    const ProfileSnapshot snap = Profiler::instance().snapshot();
    EXPECT_TRUE(snap.entries.empty());
}

TEST_F(ProfTest, NestedSpansBuildSlashJoinedPaths)
{
    {
        ScopedSpan outer("outer");
        {
            ScopedSpan inner("inner");
        }
        {
            ScopedSpan inner("inner");
        }
    }
    {
        ScopedSpan other("other");
    }
    const ProfileSnapshot snap = Profiler::instance().snapshot();
    ASSERT_EQ(snap.entries.size(), 3u);
    // Lexicographic path order == depth-first tree order.
    EXPECT_EQ(snap.entries[0].path, "other");
    EXPECT_EQ(snap.entries[1].path, "outer");
    EXPECT_EQ(snap.entries[2].path, "outer/inner");
    EXPECT_EQ(snap.entries[1].depth, 0);
    EXPECT_EQ(snap.entries[2].depth, 1);
    EXPECT_EQ(snap.entries[2].stats.count, 2u);
    const ProfileEntry *outer = snap.find("outer");
    ASSERT_NE(outer, nullptr);
    EXPECT_EQ(outer->stats.count, 1u);
    EXPECT_EQ(snap.find("inner"), nullptr);  // only full paths
}

TEST_F(ProfTest, AddVirtualAndProfRecordAccumulateVcycles)
{
    {
        ScopedSpan run("run");
        run.addVirtual(1000);
        run.addVirtual(500);
        profRecord("sync", 0, 250);
        profRecord("sync", 0, 250);
        profRecord("bulk", 7, 0, 5);
    }
    const ProfileSnapshot snap = Profiler::instance().snapshot();
    const ProfileEntry *run = snap.find("run");
    ASSERT_NE(run, nullptr);
    EXPECT_EQ(run->stats.vcycles, 1500u);
    const ProfileEntry *sync = snap.find("run/sync");
    ASSERT_NE(sync, nullptr);
    EXPECT_EQ(sync->stats.count, 2u);
    EXPECT_EQ(sync->stats.vcycles, 500u);
    const ProfileEntry *bulk = snap.find("run/bulk");
    ASSERT_NE(bulk, nullptr);
    EXPECT_EQ(bulk->stats.count, 5u);
    EXPECT_EQ(bulk->stats.wallNs, 7u);
}

TEST_F(ProfTest, SampledSpanMeasuresEveryStrideThCall)
{
    std::uint32_t countdown = Profiler::armSample();
    ASSERT_EQ(countdown, Profiler::sampleStride);
    const int calls = 3 * static_cast<int>(Profiler::sampleStride);
    for (int i = 0; i < calls; ++i)
        SampledSpan prof(countdown, "hot");
    const ProfileSnapshot snap = Profiler::instance().snapshot();
    const ProfileEntry *hot = snap.find("hot");
    ASSERT_NE(hot, nullptr);
    EXPECT_EQ(hot->stats.count, 3u);
    // The countdown is re-armed, not left at zero.
    EXPECT_EQ(countdown, Profiler::sampleStride);

    // A countdown armed while the profiler was off stays 0 — the
    // object opted out at construction and never samples.
    Profiler::setEnabled(false);
    std::uint32_t disarmed = Profiler::armSample();
    Profiler::setEnabled(true);
    EXPECT_EQ(disarmed, 0u);
    for (int i = 0; i < calls; ++i)
        SampledSpan prof(disarmed, "cold");
    EXPECT_EQ(disarmed, 0u);
    EXPECT_EQ(Profiler::instance().snapshot().find("cold"), nullptr);
}

TEST_F(ProfTest, TotalOfSumsAcrossCallers)
{
    {
        ScopedSpan a("callerA");
        profRecord("leaf", 0, 10);
    }
    {
        ScopedSpan b("callerB");
        profRecord("leaf", 0, 30);
    }
    const ProfileSnapshot snap = Profiler::instance().snapshot();
    const SpanStats leaf = snap.totalOf("leaf");
    EXPECT_EQ(leaf.count, 2u);
    EXPECT_EQ(leaf.vcycles, 40u);
    // A name that is only a suffix of a component must not match.
    EXPECT_EQ(snap.totalOf("eaf").count, 0u);
}

TEST_F(ProfTest, ExitedThreadsFoldIntoTheSnapshot)
{
    std::vector<std::thread> workers;
    for (int i = 0; i < 4; ++i) {
        workers.emplace_back([] {
            ScopedSpan span("worker");
            span.addVirtual(100);
        });
    }
    for (std::thread &t : workers)
        t.join();
    const ProfileSnapshot snap = Profiler::instance().snapshot();
    const ProfileEntry *w = snap.find("worker");
    ASSERT_NE(w, nullptr);
    // All four trees merged by path, whichever threads ran them.
    EXPECT_EQ(w->stats.count, 4u);
    EXPECT_EQ(w->stats.vcycles, 400u);
}

TEST_F(ProfTest, ResetClearsEverything)
{
    {
        ScopedSpan span("gone");
    }
    Profiler::instance().reset();
    const ProfileSnapshot snap = Profiler::instance().snapshot();
    EXPECT_TRUE(snap.entries.empty());
    EXPECT_TRUE(snap.tracks.empty());
}

TEST_F(ProfTest, TrackCaptureRecordsOccurrences)
{
    Profiler::setCaptureTracks(true);
    {
        ScopedSpan outer("outer");
        ScopedSpan inner("inner");
    }
    const ProfileSnapshot snap = Profiler::instance().snapshot();
    ASSERT_EQ(snap.tracks.size(), 2u);
    // Inner closes first.
    EXPECT_EQ(snap.tracks[0].path, "outer/inner");
    EXPECT_EQ(snap.tracks[1].path, "outer");
    EXPECT_EQ(snap.trackDropped, 0u);
}

TEST_F(ProfTest, JsonAndCsvExportCarryAllColumns)
{
    {
        ScopedSpan span("export");
        span.addVirtual(42);
    }
    const ProfileSnapshot snap = Profiler::instance().snapshot();
    const Json doc = profileJson(snap);
    const Json *schema = doc.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->asString(), "cohersim.profile.v1");
    const Json *spans = doc.find("spans");
    ASSERT_NE(spans, nullptr);
    ASSERT_EQ(spans->items().size(), 1u);
    const Json &row = spans->items()[0];
    EXPECT_EQ(row.find("path")->asString(), "export");
    EXPECT_EQ(row.find("count")->asInt(), 1);
    EXPECT_EQ(row.find("vcycles")->asInt(), 42);

    const std::string csv = profileCsv(snap);
    EXPECT_NE(csv.find("path,depth,count,wall_ns,vcycles"),
              std::string::npos);
    EXPECT_NE(csv.find("export,0,1,"), std::string::npos);
}

TEST_F(ProfTest, ProfilerTracksAppendToPerfettoDocument)
{
    Profiler::setCaptureTracks(true);
    {
        ScopedSpan span("tracked");
    }
    const ProfileSnapshot snap = Profiler::instance().snapshot();
    Json doc = Json::object();
    doc["traceEvents"] = Json::array();
    appendProfilerTracks(doc, snap);
    const Json *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    bool saw_process = false, saw_span = false;
    for (const Json &ev : events->items()) {
        const Json *ph = ev.find("ph");
        if (ph && ph->asString() == "M" &&
            ev.find("name")->asString() == "process_name") {
            saw_process = true;
        }
        if (ph && ph->asString() == "X" &&
            ev.find("name")->asString() == "tracked") {
            saw_span = true;
            // Rebased: the only span starts at ts 0.
            EXPECT_EQ(ev.find("ts")->asDouble(), 0.0);
        }
    }
    EXPECT_TRUE(saw_process);
    EXPECT_TRUE(saw_span);
}

TEST_F(ProfTest, MemHotPathSamplingIsDeterministic)
{
    SystemConfig sys;
    MemorySystem mem(sys);
    const int ops = 2 * static_cast<int>(Profiler::sampleStride);
    Tick now = 0;
    for (int i = 0; i < ops; ++i)
        mem.load(0, 0x40000000 + 64 * (i % 8), now += 100);
    const ProfileSnapshot snap = Profiler::instance().snapshot();
    const SpanStats loads = snap.totalOf("mem.load");
    EXPECT_EQ(loads.count, 2u);
    EXPECT_GT(loads.vcycles, 0u);  // carries the access latency
}

TEST_F(ProfTest, ProfilingNeverPerturbsSimulatedLatencies)
{
    // The acceptance criterion in miniature: identical op sequences
    // on identically seeded machines return bit-identical latencies
    // whether or not the profiler observed them.
    SystemConfig sys;
    const auto run = [&sys] {
        MemorySystem mem(sys);
        std::vector<Tick> lat;
        Tick now = 0;
        for (int i = 0; i < 300; ++i) {
            const PAddr addr = 0x40000000 + 64 * (i % 16);
            lat.push_back(mem.load(i % 4, addr, now += 50).latency);
            if (i % 3 == 0)
                lat.push_back(
                    mem.store(i % 4, addr, now += 50).latency);
            if (i % 7 == 0)
                lat.push_back(
                    mem.flush(i % 4, addr, now += 50).latency);
        }
        return lat;
    };
    Profiler::setEnabled(true);
    const std::vector<Tick> on = run();
    Profiler::setEnabled(false);
    const std::vector<Tick> off = run();
    EXPECT_EQ(on, off);
}

} // namespace
} // namespace csim
