/**
 * @file
 * Tests for the tracing subsystem: the multi-subscriber event bus and
 * its category filtering, the recorder's drain order and its
 * fill-on-a-worker, drain-after-join hand-off (a two-thread check for
 * the thread sanitizer), the Perfetto exporter against a golden dump, the
 * trace-query helpers, the counter registry, and an end-to-end
 * transmission capture.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "channel/experiment.hh"
#include "runner/json_sink.hh"
#include "runner/runner.hh"
#include "trace/bus.hh"
#include "trace/counters.hh"
#include "trace/event.hh"
#include "trace/perfetto.hh"
#include "trace/recorder.hh"

namespace csim
{
namespace
{

TraceEvent
ev(TraceEventType type, Tick when, CoreId core = invalidCore)
{
    return TraceEvent{type, traceTypeCategory(type), core, when,
                      0, 0, 0};
}

TEST(TraceEventVocabulary, NamesAreDistinct)
{
    std::set<std::string> names;
    for (int c = 0; c < numTraceCategories; ++c) {
        const std::string name =
            traceCategoryName(static_cast<TraceCategory>(c));
        EXPECT_NE(name, "?");
        EXPECT_TRUE(names.insert(name).second) << name;
    }
    // Every event type has a name and maps into a valid category.
    for (int t = 0; t < static_cast<int>(TraceEventType::numTypes);
         ++t) {
        const auto type = static_cast<TraceEventType>(t);
        EXPECT_NE(std::string(traceTypeName(type)), "");
        EXPECT_LT(static_cast<int>(traceTypeCategory(type)),
                  numTraceCategories);
    }
}

TEST(TraceBus, DeliversToMatchingSubscribersOnly)
{
    TraceBus bus;
    int mem_seen = 0, ch_seen = 0, all_seen = 0;
    bus.subscribe(categoryBit(TraceCategory::mem),
                  [&](const TraceEvent &) { ++mem_seen; });
    bus.subscribe(categoryBit(TraceCategory::channel),
                  [&](const TraceEvent &) { ++ch_seen; });
    bus.subscribe(allTraceCategories,
                  [&](const TraceEvent &) { ++all_seen; });

    bus.publish(ev(TraceEventType::memLoad, 10));
    bus.publish(ev(TraceEventType::chTxStart, 20));
    bus.publish(ev(TraceEventType::schedSwitch, 30));

    EXPECT_EQ(mem_seen, 1);
    EXPECT_EQ(ch_seen, 1);
    EXPECT_EQ(all_seen, 3);
    EXPECT_EQ(bus.published(), 3u);
}

TEST(TraceBus, UnsubscribeRecomputesLiveMask)
{
    TraceBus bus;
    EXPECT_FALSE(bus.enabled(TraceCategory::mem));
    const int id =
        bus.subscribe(categoryBit(TraceCategory::mem),
                      [](const TraceEvent &) {});
    EXPECT_TRUE(bus.enabled(TraceCategory::mem));
    EXPECT_FALSE(bus.enabled(TraceCategory::os));
    EXPECT_EQ(bus.subscriberCount(), 1u);
    bus.unsubscribe(id);
    EXPECT_FALSE(bus.enabled(TraceCategory::mem));
    EXPECT_EQ(bus.subscriberCount(), 0u);
    // Unknown ids are ignored.
    bus.unsubscribe(12345);
}

TEST(TraceRecorder, RoutesByCoreAndDrainsSorted)
{
    TraceBus bus;
    TraceRecorder rec;
    rec.attach(bus, /*num_cores=*/2);

    bus.publish(ev(TraceEventType::memLoad, 30, 1));
    bus.publish(ev(TraceEventType::memLoad, 10, 0));
    bus.publish(ev(TraceEventType::osKsmScan, 20));  // coreless
    bus.publish(ev(TraceEventType::memLoad, 40, 99));  // out of range
    // Same-time events drain core by core, then coreless (an
    // out-of-range core counts as coreless), then in publish order.
    bus.publish(ev(TraceEventType::memStore, 50, 99));
    bus.publish(ev(TraceEventType::osKsmScan, 50));
    bus.publish(ev(TraceEventType::memLoad, 50, 1));
    bus.publish(ev(TraceEventType::memLoad, 50, 0));
    bus.publish(ev(TraceEventType::memStore, 50, 0));

    const std::vector<TraceEvent> events = rec.drain();
    ASSERT_EQ(events.size(), 9u);
    EXPECT_EQ(events[0].when, 10u);
    EXPECT_EQ(events[1].when, 20u);
    EXPECT_EQ(events[2].when, 30u);
    EXPECT_EQ(events[3].when, 40u);
    const std::vector<std::pair<CoreId, TraceEventType>> ties = {
        {0, TraceEventType::memLoad},
        {0, TraceEventType::memStore},
        {1, TraceEventType::memLoad},
        {99, TraceEventType::memStore},
        {invalidCore, TraceEventType::osKsmScan},
    };
    for (std::size_t i = 0; i < ties.size(); ++i) {
        EXPECT_EQ(events[4 + i].when, 50u);
        EXPECT_EQ(events[4 + i].core, ties[i].first) << i;
        EXPECT_EQ(events[4 + i].type, ties[i].second) << i;
    }

    // Detach stops capture; the bus keeps publishing fine.
    rec.detach();
    bus.publish(ev(TraceEventType::memLoad, 50, 0));
    EXPECT_TRUE(rec.drain().empty());
}

/**
 * The `cohersim profile` hand-off: a runJobs() worker fills the
 * recorder and the calling thread drains it after the join. Run
 * under -fsanitize=thread this checks the join is the only
 * synchronisation the recorder needs. The capture is larger than any
 * fixed per-core buffer would need to be, and nothing is lost.
 */
TEST(TraceRecorder, FilledInRunJobsDrainedAfterJoin)
{
    constexpr Tick total = 40000;
    TraceRecorder rec;
    std::vector<std::function<int()>> jobs;
    jobs.push_back([&rec] {
        TraceBus bus;
        rec.attach(bus, /*num_cores=*/2);
        for (Tick t = 0; t < total; ++t)
            bus.publish(ev(TraceEventType::memLoad, total - t,
                           static_cast<CoreId>(t % 2)));
        rec.detach();
        return 0;
    });
    RunnerOptions opts;
    opts.jobs = 2;
    runJobs(std::move(jobs), opts);

    const std::vector<TraceEvent> events = rec.drain();
    ASSERT_EQ(events.size(), total);
    for (std::size_t i = 0; i < events.size(); ++i) {
        ASSERT_EQ(events[i].when, i + 1);
        const Tick published = total - 1 - i;
        ASSERT_EQ(events[i].core, static_cast<CoreId>(published % 2));
    }
    EXPECT_TRUE(rec.drain().empty());
}

TEST(PerfettoExport, MatchesGoldenDump)
{
    SystemConfig sys;
    sys.sockets = 1;
    sys.coresPerSocket = 1;
    sys.timing.clockGhz = 1.0;  // 1 cycle == 1 ns; ts(us) = cyc/1000
    const std::vector<TraceEvent> events = {
        {TraceEventType::memLoad, TraceCategory::mem, 0, 1000, 0x40,
         2, 180},
        {TraceEventType::chSyncDone, TraceCategory::channel,
         invalidCore, 2000, 0, 7, 0},
    };
    const std::string golden = R"({
  "traceEvents": [
    {
      "name": "process_name",
      "ph": "M",
      "pid": 1,
      "tid": 0,
      "args": {
        "name": "socket 0"
      }
    },
    {
      "name": "thread_name",
      "ph": "M",
      "pid": 1,
      "tid": 1,
      "args": {
        "name": "core 0"
      }
    },
    {
      "name": "process_name",
      "ph": "M",
      "pid": 2,
      "tid": 0,
      "args": {
        "name": "kernel"
      }
    },
    {
      "name": "mem.load",
      "cat": "mem",
      "ph": "i",
      "s": "t",
      "ts": 1,
      "pid": 1,
      "tid": 1,
      "args": {
        "cycles": 1000,
        "addr": "0x40",
        "a": 2,
        "b": 180
      }
    },
    {
      "name": "ch.sync_done",
      "cat": "channel",
      "ph": "i",
      "s": "t",
      "ts": 2,
      "pid": 2,
      "tid": 0,
      "args": {
        "cycles": 2000,
        "a": 7,
        "b": 0
      }
    }
  ],
  "displayTimeUnit": "ns"
})";
    EXPECT_EQ(perfettoTraceJson(events, sys).dump(), golden);
}

TEST(CounterRegistry, InsertionOrderAndMerge)
{
    CounterRegistry a;
    a.counter("x") = 5;
    a.add("y", 2);
    a.add("x", 1);
    EXPECT_EQ(a.value("x"), 6u);
    EXPECT_EQ(a.value("unknown"), 0u);
    ASSERT_EQ(a.size(), 2u);
    EXPECT_EQ(a.entries()[0].first, "x");
    EXPECT_EQ(a.entries()[1].first, "y");

    CounterRegistry b;
    b.add("y", 10);
    b.add("z", 1);
    a.merge(b);
    EXPECT_EQ(a.value("y"), 12u);
    EXPECT_EQ(a.value("z"), 1u);
    ASSERT_EQ(a.size(), 3u);
    EXPECT_EQ(a.entries()[2].first, "z");

    const std::string json = a.toJson().dump();
    EXPECT_LT(json.find("\"x\": 6"), json.find("\"y\": 12"));
    EXPECT_LT(json.find("\"y\": 12"), json.find("\"z\": 1"));
}

/** The acceptance property: a traced transmission captures at least
 *  four categories, the channel milestones appear in protocol order,
 *  and the capture does not perturb the simulation. */
TEST(EndToEnd, TracedTransmission)
{
    ChannelConfig cfg;
    cfg.system.seed = 2018;
    const CalibrationResult cal =
        calibrate(cfg.system, 150, cfg.params);
    Rng rng(5);
    const BitString payload = randomBits(rng, 24);
    cfg.timeout = cfg.deriveTimeout(payload.size());

    // Reference run without a recorder.
    const ChannelReport plain =
        runTransmission(cfg, payload, &cal);

    TraceRecorder recorder;
    cfg.taps.push_back(&recorder);
    const ChannelReport traced =
        runTransmission(cfg, payload, &cal);

    // Observation must not perturb: bit-identical outcome.
    EXPECT_EQ(bitsToString(plain.received),
              bitsToString(traced.received));
    EXPECT_EQ(plain.metrics.durationCycles,
              traced.metrics.durationCycles);

    const std::vector<TraceEvent> events = recorder.drain();
    std::set<TraceCategory> categories;
    for (const TraceEvent &ev : events)
        categories.insert(ev.category);
    EXPECT_GE(categories.size(), 4u);
    // The channel milestones appear in protocol order, other events
    // interleaved.
    auto at = events.begin();
    for (const TraceEventType type :
         {TraceEventType::chShareEstablished, TraceEventType::chSyncDone,
          TraceEventType::chTxStart, TraceEventType::chRxStart,
          TraceEventType::chRxEnd}) {
        at = std::find_if(at, events.end(), [type](const TraceEvent &ev) {
            return ev.type == type;
        });
        ASSERT_NE(at, events.end()) << traceTypeName(type);
        ++at;
    }
    auto count = [&events](TraceEventType type) {
        return static_cast<std::size_t>(std::count_if(
            events.begin(), events.end(),
            [type](const TraceEvent &ev) { return ev.type == type; }));
    };
    EXPECT_GT(count(TraceEventType::memLoad), 0u);
    EXPECT_EQ(count(TraceEventType::chRxBit), traced.received.size());

    // Counter totals mirror the simulator's own stats.
    EXPECT_GT(traced.counters.value("mem.loads"), 0u);
    EXPECT_EQ(traced.counters.value("mem.loads"),
              plain.counters.value("mem.loads"));

    // The rig detached the recorder; the events stayed drainable and
    // a second drain finds nothing new.
    EXPECT_TRUE(recorder.drain().empty());
}

} // namespace
} // namespace csim
