/**
 * @file
 * Tests for the run-health observability layer: the log-bucketed
 * histogram's bucketing/percentile/merge arithmetic, the windowed
 * timeseries and its merge/totals contract, the error-attribution
 * engine on synthetic streams, the monitor end-to-end against a real
 * transmission (the per-window totals must sum exactly to the
 * machine-wide counters), the Perfetto trace round-trip feeding
 * `cohersim report --trace` and a mutation fuzz of its input path,
 * and the report renderers.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "channel/experiment.hh"
#include "common/edit_distance.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "obs/attribution.hh"
#include "obs/health.hh"
#include "obs/histogram.hh"
#include "obs/report.hh"
#include "obs/timeseries.hh"
#include "runner/json_sink.hh"
#include "trace/perfetto.hh"
#include "trace/recorder.hh"

namespace csim
{
namespace
{

TEST(LogHistogram, ExactBelowLinearRange)
{
    LogHistogram h(5);
    for (std::uint64_t v = 0; v < 32; ++v)
        h.record(v);
    EXPECT_EQ(h.count(), 32u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 31u);
    EXPECT_EQ(h.sum(), 31u * 32u / 2);
    // Values below 2^subBits land in their own bucket.
    for (std::uint64_t v = 0; v < 32; ++v) {
        EXPECT_EQ(h.bucketLow(h.bucketIndex(v)), v);
        EXPECT_EQ(h.bucketMid(h.bucketIndex(v)), v);
    }
}

TEST(LogHistogram, RelativeErrorBounded)
{
    LogHistogram h(5);
    // Above the linear range the bucket mid must stay within
    // 2^-subBits relative error of the recorded value.
    for (std::uint64_t v : {100ull, 999ull, 4096ull, 123456789ull}) {
        const std::size_t idx = h.bucketIndex(v);
        const double mid =
            static_cast<double>(h.bucketMid(idx));
        const double rel =
            std::abs(mid - static_cast<double>(v)) /
            static_cast<double>(v);
        EXPECT_LE(rel, 1.0 / 32.0) << "value " << v;
        // And the bucket must actually contain the value.
        EXPECT_LE(h.bucketLow(idx), v);
    }
}

TEST(LogHistogram, PercentilesOnKnownStream)
{
    LogHistogram h(5);
    for (std::uint64_t v = 1; v <= 100; ++v)
        h.record(v);
    // All values are exact (single-value buckets up to 32, then
    // quantized); the quantiles must be monotone and near the rank.
    EXPECT_EQ(h.percentile(0), 1u);
    EXPECT_EQ(h.percentile(100), 100u);
    EXPECT_LE(h.percentile(50), h.percentile(95));
    EXPECT_NEAR(static_cast<double>(h.percentile(50)), 50.0, 2.0);
    EXPECT_NEAR(static_cast<double>(h.percentile(95)), 95.0, 4.0);
    EXPECT_NEAR(h.mean(), 50.5, 1e-9);
}

TEST(LogHistogram, MergeEqualsCombinedStream)
{
    LogHistogram a(5), b(5), all(5);
    for (std::uint64_t v = 0; v < 1000; v += 3) {
        a.record(v * 7 % 511);
        all.record(v * 7 % 511);
    }
    for (std::uint64_t v = 0; v < 1000; v += 5) {
        b.record(v * 13 % 2048);
        all.record(v * 13 % 2048);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_EQ(a.sum(), all.sum());
    EXPECT_EQ(a.min(), all.min());
    EXPECT_EQ(a.max(), all.max());
    EXPECT_EQ(a.buckets(), all.buckets());
    EXPECT_EQ(a.percentile(50), all.percentile(50));
    EXPECT_EQ(a.percentile(99), all.percentile(99));
}

TEST(WindowedTimeseries, IndexingMergeAndTotals)
{
    WindowedTimeseries s(1000);
    s.at(0).txBits += 1;
    s.at(999).txBits += 1;   // same window
    s.at(1000).rxBits += 2;  // next window
    s.at(5500).nacks += 3;   // grows to six windows
    ASSERT_EQ(s.windows().size(), 6u);
    EXPECT_EQ(s.windows()[0].txBits, 2u);
    EXPECT_EQ(s.windows()[1].rxBits, 2u);
    EXPECT_EQ(s.windows()[5].nacks, 3u);

    WindowedTimeseries t(1000);
    t.at(500).txBits += 10;
    t.at(2500).loads += 7;
    s.merge(t);
    EXPECT_EQ(s.windows()[0].txBits, 12u);
    EXPECT_EQ(s.windows()[2].loads, 7u);

    const WindowCounters sums = s.totals();
    EXPECT_EQ(sums.txBits, 12u);
    EXPECT_EQ(sums.rxBits, 2u);
    EXPECT_EQ(sums.nacks, 3u);
    EXPECT_EQ(sums.loads, 7u);

    // The CSV export carries every field column plus the windows.
    const std::string csv = s.toCsv();
    for (const WindowField &f : windowFields())
        EXPECT_NE(csv.find(f.name), std::string::npos) << f.name;
}

std::vector<BitObs>
bitsAt(const std::vector<std::pair<Tick, int>> &seq)
{
    std::vector<BitObs> out;
    for (const auto &[when, bit] : seq)
        out.push_back({when, static_cast<std::uint8_t>(bit)});
    return out;
}

TEST(Attribution, PerfectStreamHasNoErrors)
{
    const auto tx = bitsAt({{100, 1}, {200, 0}, {300, 1}});
    const auto rx = bitsAt({{150, 1}, {250, 0}, {350, 1}});
    const auto errors = attributeErrors(tx, rx, {}, 1000);
    EXPECT_TRUE(errors.empty());
    EXPECT_EQ(budgetOf(errors).total(), 0u);
}

TEST(Attribution, CountMatchesEditDistance)
{
    // Substitution + deletion + insertion mixed in.
    const auto tx =
        bitsAt({{100, 1}, {200, 0}, {300, 1}, {400, 1}, {500, 0}});
    const auto rx =
        bitsAt({{110, 1}, {210, 1}, {410, 1}, {510, 0}, {520, 0}});
    BitString sent, received;
    for (const BitObs &o : tx)
        sent.push_back(o.bit);
    for (const BitObs &o : rx)
        received.push_back(o.bit);
    const auto errors = attributeErrors(tx, rx, {}, 50);
    EXPECT_EQ(errors.size(), editDistance(sent, received));
    // No cause evidence: everything unattributed, sum preserved.
    const ErrorBudget budget = budgetOf(errors);
    EXPECT_EQ(budget.total(), errors.size());
    EXPECT_EQ(budget.count(ErrorCause::unattributed), errors.size());
}

TEST(Attribution, NearestCauseWithinRadiusWins)
{
    // One substitution at rx time 200.
    const auto tx = bitsAt({{100, 1}, {190, 0}});
    const auto rx = bitsAt({{110, 1}, {200, 1}});
    const std::vector<CauseEvent> causes = {
        {150, ErrorCause::noiseEviction},
        {900, ErrorCause::syncSlip},  // outside radius
    };
    const auto errors = attributeErrors(tx, rx, causes, 100);
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_EQ(errors[0].cause, ErrorCause::noiseEviction);

    // Radius too small: unattributed.
    const auto far = attributeErrors(tx, rx, causes, 10);
    ASSERT_EQ(far.size(), 1u);
    EXPECT_EQ(far[0].cause, ErrorCause::unattributed);
}

TEST(Attribution, MoreSpecificCauseBreaksTies)
{
    const auto tx = bitsAt({{100, 1}});
    const auto rx = bitsAt({{100, 0}});
    const std::vector<CauseEvent> causes = {
        {90, ErrorCause::syncSlip},
        {95, ErrorCause::retransmitExhausted},
        {105, ErrorCause::noiseEviction},
    };
    const auto errors = attributeErrors(tx, rx, causes, 50);
    ASSERT_EQ(errors.size(), 1u);
    // All three are in range; the most specific cause (lowest enum
    // value) is charged regardless of distance ordering.
    EXPECT_EQ(errors[0].cause, ErrorCause::retransmitExhausted);
}

TEST(Attribution, BudgetMergePreservesTotals)
{
    ErrorBudget a, b;
    a[ErrorCause::syncSlip] = 3;
    a[ErrorCause::unattributed] = 1;
    b[ErrorCause::noiseEviction] = 2;
    a.merge(b);
    EXPECT_EQ(a.total(), 6u);
    EXPECT_EQ(a.count(ErrorCause::syncSlip), 3u);
    EXPECT_EQ(a.count(ErrorCause::noiseEviction), 2u);
}

/** Synthetic event feed: a monitor fed by hand, no simulation. */
TEST(RunHealthMonitor, SyntheticNoiseEvictionAttribution)
{
    ObsConfig cfg;
    cfg.windowCycles = 1000;
    RunHealthMonitor monitor(cfg);
    const PAddr page = 0x40000000;
    auto feed = [&](TraceEventType type, Tick when, PAddr addr,
                    std::uint64_t a, std::uint64_t b) {
        monitor.observe(TraceEvent{type, traceTypeCategory(type), 0,
                                   when, addr, a, b});
    };
    feed(TraceEventType::chShareEstablished, 10, page + 192, 1, 0);
    // Three bits sent; the second arrives flipped right after the
    // shared page is back-invalidated under the spy.
    feed(TraceEventType::chTxBit, 100, 0, 1, 0);
    feed(TraceEventType::chTxBit, 200, 0, 0, 0);
    feed(TraceEventType::chTxBit, 300, 0, 1, 0);
    feed(TraceEventType::chRxBit, 150, 0, 1, 0);
    feed(TraceEventType::cohBackInvalidate, 240, page + 64, 0, 0);
    feed(TraceEventType::chRxBit, 250, 0, 1, 1);
    feed(TraceEventType::chRxBit, 350, 0, 1, 2);
    // A back-invalidation of some other page must not count.
    feed(TraceEventType::cohBackInvalidate, 260, 0x7000000, 0, 0);

    const RunHealth health = monitor.finalize();
    EXPECT_EQ(health.budget.total(), 1u);
    EXPECT_EQ(health.budget.count(ErrorCause::noiseEviction), 1u);
    const WindowCounters totals = health.series.totals();
    EXPECT_EQ(totals.txBits, 3u);
    EXPECT_EQ(totals.rxBits, 3u);
    EXPECT_EQ(totals.bitErrors, 1u);
    EXPECT_EQ(totals.noiseEvictions, 1u);
}

ChannelConfig
quickConfig()
{
    ChannelConfig cfg;
    cfg.system.seed = 77;
    cfg.params =
        ChannelParams::forTargetKbps(500, cfg.system.timing);
    return cfg;
}

BitString
quickPayload()
{
    Rng rng(9);
    return randomBits(rng, 64);
}

/**
 * End-to-end: attach the monitor to a real transmission and check
 * the windowed totals against the whole-run ground truth — the
 * property the timeseries contract promises (window sums equal the
 * CounterRegistry / report values exactly).
 */
TEST(RunHealthMonitor, WindowTotalsMatchRunTotals)
{
    ChannelConfig cfg = quickConfig();
    const BitString payload = quickPayload();
    cfg.timeout = cfg.deriveTimeout(payload.size(), 20.0);

    ObsConfig ocfg;
    ocfg.windowCycles = 100'000;  // force many windows
    RunHealthMonitor monitor(ocfg);
    cfg.taps.push_back(&monitor);
    const ChannelReport rep = runTransmission(cfg, payload);
    ASSERT_TRUE(rep.completed);
    const RunHealth health = monitor.finalize();

    const WindowCounters totals = health.series.totals();
    // Every private-cache-missing load the machine counted is in
    // exactly one window (L1/L2 hits publish no mem.load event).
    EXPECT_EQ(totals.loads,
              rep.counters.value("mem.loads") -
                  rep.counters.value("mem.l1_hits") -
                  rep.counters.value("mem.l2_hits"));
    // Every bit on the wire is in exactly one window.
    EXPECT_EQ(totals.txBits, rep.sent.size());
    EXPECT_EQ(totals.rxBits, rep.received.size());
    // The attributed error count is exactly the run's edit-distance
    // error count, and the budget sums to it.
    const std::size_t distance =
        editDistance(rep.sent, rep.received);
    EXPECT_EQ(health.errors.size(), distance);
    EXPECT_EQ(health.budget.total(), distance);
    EXPECT_EQ(totals.bitErrors, distance);
    EXPECT_GT(health.series.windows().size(), 1u);
}

TEST(RunHealthMonitor, BandsPopulatedAndAssessed)
{
    ChannelConfig cfg = quickConfig();
    const CalibrationResult cal =
        calibrate(cfg.system, 400, cfg.params);
    const BitString payload = quickPayload();
    cfg.timeout = cfg.deriveTimeout(payload.size(), 20.0);

    RunHealthMonitor monitor;
    monitor.setBands(cal);
    cfg.taps.push_back(&monitor);
    const ChannelReport rep =
        runTransmission(cfg, payload, &cal);
    ASSERT_TRUE(rep.completed);
    const RunHealth health = monitor.finalize();

    // The default scenario (RExclc-LSharedb) exercises the RExcl
    // communication band and the LShared boundary band on the spy
    // core; both slots must have samples and calibrated intervals.
    const ScenarioInfo &sc = scenarioInfo(cfg.scenario);
    const auto slot_of = [](Combo c) {
        return static_cast<std::size_t>(comboIndex(c));
    };
    EXPECT_GT(health.bands[slot_of(sc.csc)].hist.count(), 0u);
    EXPECT_GT(health.bands[slot_of(sc.csb)].hist.count(), 0u);
    EXPECT_TRUE(health.bands[slot_of(sc.csc)].hasBand);

    const std::vector<BandAssessment> bands = assessBands(health);
    ASSERT_GE(bands.size(), 2u);
    for (const BandAssessment &b : bands) {
        EXPECT_GT(b.samples, 0u);
        EXPECT_TRUE(b.hasSeparation);
        EXPECT_FALSE(b.nearest.empty());
        EXPECT_LE(b.p5, b.p50);
        EXPECT_LE(b.p50, b.p95);
    }

    // The JSON document carries one band entry per occupied slot
    // and an error budget that sums to its total.
    const Json doc = healthJson(health);
    ASSERT_NE(doc.find("bands"), nullptr);
    EXPECT_EQ(doc.find("bands")->items().size(), bands.size());
    const Json *budget = doc.find("error_budget");
    ASSERT_NE(budget, nullptr);
    std::int64_t attributed = 0;
    for (int c = 0; c < numErrorCauses; ++c) {
        // PHY-only causes are zero-suppressed on legacy-profile runs.
        const Json *n = budget->find(
            errorCauseName(static_cast<ErrorCause>(c)));
        if (n != nullptr)
            attributed += n->asInt();
    }
    EXPECT_EQ(attributed, budget->find("total")->asInt());

    // The human-readable report renders without tripping anything
    // and names every section.
    std::ostringstream os;
    renderHealthReport(os, health);
    const std::string text = os.str();
    EXPECT_NE(text.find("Band separation"), std::string::npos);
    EXPECT_NE(text.find("Error budget"), std::string::npos);
    EXPECT_NE(text.find("Timeseries"), std::string::npos);
}

/**
 * Round-trip: a recorded transmission, exported to Perfetto JSON and
 * read back, must replay into the same health record the live
 * monitor produced. The 1024-bit payload publishes more events on a
 * core than a 16k-event per-core buffer would hold: the recorder must
 * keep them all.
 */
TEST(OfflineAnalysis, TraceRoundTripMatchesLiveMonitor)
{
    for (const std::size_t bits : {std::size_t{64}, std::size_t{1024}}) {
        SCOPED_TRACE(bits);
        ChannelConfig cfg = quickConfig();
        Rng rng(9);
        const BitString payload = randomBits(rng, bits);
        cfg.timeout = cfg.deriveTimeout(payload.size(), 20.0);

        TraceRecorder recorder;
        cfg.taps.push_back(&recorder);
        ObsConfig ocfg;
        ocfg.windowCycles = 100'000;
        ocfg.bandCore = -1;  // a saved trace replays every core too
        RunHealthMonitor monitor(ocfg);
        cfg.taps.push_back(&monitor);
        const ChannelReport rep = runTransmission(cfg, payload);
        ASSERT_TRUE(rep.completed);
        const RunHealth live = monitor.finalize();

        const std::vector<TraceEvent> events = recorder.drain();
        const std::string path = "test_obs_roundtrip_trace.json";
        writePerfettoTrace(path, events, cfg.system);
        const std::vector<TraceEvent> reread = readPerfettoTrace(path);
        std::remove(path.c_str());
        ASSERT_EQ(reread.size(), events.size());
        for (std::size_t i = 0; i < events.size(); ++i) {
            EXPECT_EQ(reread[i].type, events[i].type);
            EXPECT_EQ(reread[i].when, events[i].when);
            EXPECT_EQ(reread[i].core, events[i].core);
            EXPECT_EQ(reread[i].addr, events[i].addr);
            EXPECT_EQ(reread[i].a, events[i].a);
            EXPECT_EQ(reread[i].b, events[i].b);
            if (HasFailure())
                break;
        }

        const RunHealth offline = analyzeTrace(reread, ocfg);
        EXPECT_EQ(offline.budget.total(), live.budget.total());
        const WindowCounters lt = live.series.totals();
        const WindowCounters ot = offline.series.totals();
        EXPECT_EQ(ot.txBits, lt.txBits);
        EXPECT_EQ(ot.rxBits, lt.rxBits);
        EXPECT_EQ(ot.loads, lt.loads);
        EXPECT_EQ(ot.syncSlips, lt.syncSlips);
        EXPECT_EQ(offline.series.windows().size(),
                  live.series.windows().size());
    }
}

/** A copy of @p obj with member @p key replaced by @p value. */
Json
withMember(const Json &obj, const std::string &key, const Json &value)
{
    Json out = Json::object();
    for (const auto &[k, v] : obj.entries())
        out[k] = k == key ? value : v;
    return out;
}

/**
 * readPerfettoTrace() on @p text: events, or a std::runtime_error
 * (fatal() or JsonParseError). An internal panic (std::logic_error)
 * or any other exception fails the test.
 */
void
expectEventsOrRuntimeError(const std::string &text,
                           const std::string &what)
{
    const std::string path = "test_obs_fuzz_trace.json";
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << text;
    }
    try {
        readPerfettoTrace(path);
    } catch (const std::logic_error &e) {
        ADD_FAILURE() << what << ": " << e.what();
    } catch (const std::runtime_error &) {
        // Rejected with a message: what hostile input should get.
    }
    std::remove(path.c_str());
}

/**
 * Seeded mutation fuzz of the offline-report input path (the JSON
 * parser and the Perfetto reader): truncations, byte flips and type
 * swaps of a small captured trace, plus hostile nesting depth.
 */
TEST(OfflineAnalysis, MutatedTracesAreRejectedNotCrashed)
{
    ChannelConfig cfg = quickConfig();
    Rng payload_rng(9);
    const BitString payload = randomBits(payload_rng, 4);
    cfg.timeout = cfg.deriveTimeout(payload.size(), 20.0);
    TraceRecorder recorder;
    cfg.taps.push_back(&recorder);
    ASSERT_TRUE(runTransmission(cfg, payload).completed);
    std::vector<TraceEvent> events = recorder.drain();
    ASSERT_GT(events.size(), 40u);
    events.resize(40);
    const Json doc = perfettoTraceJson(events, cfg.system);
    const std::string text = doc.dump();
    expectEventsOrRuntimeError(text, "unmutated");

    Rng rng(2026);
    for (int i = 0; i < 100; ++i) {
        const std::size_t cut = rng.below(text.size());
        expectEventsOrRuntimeError(text.substr(0, cut),
                                   msgCat("truncated at ", cut));
    }
    for (int i = 0; i < 200; ++i) {
        std::string flipped = text;
        const std::size_t at = rng.below(text.size());
        flipped[at] = static_cast<char>(rng.below(256));
        expectEventsOrRuntimeError(flipped, msgCat("byte ", at));
    }

    // Swap one field of one event (or the event itself) for a value
    // of another JSON kind, including negative and huge integers.
    const std::vector<Json> swaps = {
        Json("7"), Json(2.5), Json(-5), Json(nullptr), Json(true),
        Json::array(), Json::object(),
        Json(std::numeric_limits<std::int64_t>::max()),
        Json(std::numeric_limits<std::int64_t>::min()),
    };
    const std::vector<std::string> item_keys = {"name", "cat", "ph",
                                                "ts", "pid", "tid",
                                                "args"};
    const std::vector<std::string> arg_keys = {"cycles", "addr", "a",
                                               "b", "pair"};
    const std::vector<Json> &items = doc.find("traceEvents")->items();
    for (int i = 0; i < 120; ++i) {
        const std::size_t victim = rng.below(items.size());
        const Json &swap = swaps[rng.below(swaps.size())];
        Json mutated = Json::array();
        for (std::size_t j = 0; j < items.size(); ++j) {
            const Json &item = items[j];
            if (j != victim) {
                mutated.push(item);
            } else if (i % 3 == 0) {
                mutated.push(withMember(
                    item, item_keys[rng.below(item_keys.size())],
                    swap));
            } else if (i % 3 == 1) {
                const Json *args = item.find("args");
                mutated.push(withMember(
                    item, "args",
                    withMember(args ? *args : Json::object(),
                               arg_keys[rng.below(arg_keys.size())],
                               swap)));
            } else {
                mutated.push(swap);
            }
        }
        expectEventsOrRuntimeError(
            withMember(doc, "traceEvents", mutated).dump(),
            msgCat("swap ", i, " on event ", victim));
    }
    expectEventsOrRuntimeError(
        withMember(doc, "traceEvents", Json(3)).dump(), "list swap");

    // Nesting: deep enough is rejected, not a stack overflow.
    expectEventsOrRuntimeError(std::string(200'000, '['), "deep [");
    expectEventsOrRuntimeError(
        "{\"traceEvents\": [" + std::string(200'000, '{'), "deep {");
    expectEventsOrRuntimeError("{\"traceEvents\": " +
                                   std::string(100, '[') +
                                   std::string(100, ']') + "}",
                               "shallow nesting");
}

/** The malformed fields the reader names rather than panicking on. */
TEST(OfflineAnalysis, ReaderRejectsMalformedFields)
{
    const auto read = [](const std::string &args,
                         const std::string &tid) {
        const std::string path = "test_obs_malformed_trace.json";
        {
            std::ofstream out(path, std::ios::trunc);
            out << "{\"traceEvents\": [{\"name\": \"mem.load\", "
                   "\"ph\": \"i\", \"tid\": "
                << tid << ", \"args\": {" << args << "}}]}";
        }
        std::vector<TraceEvent> events;
        try {
            events = readPerfettoTrace(path);
        } catch (...) {
            std::remove(path.c_str());
            throw;
        }
        std::remove(path.c_str());
        return events;
    };
    EXPECT_THROW(read("\"cycles\": -5", "1"), std::runtime_error);
    EXPECT_THROW(read("\"cycles\": \"5\"", "1"), std::runtime_error);
    EXPECT_THROW(read("\"cycles\": 5.5", "1"), std::runtime_error);
    EXPECT_THROW(read("\"cycles\": 5", "\"1\""), std::runtime_error);
    EXPECT_THROW(read("\"a\": \"x\"", "1"), std::runtime_error);
    EXPECT_THROW(read("\"pair\": []", "1"), std::runtime_error);

    // "a" and "b" carry uint64 payloads: negative is how the writer
    // spells the top half of that range.
    const std::vector<TraceEvent> ok =
        read("\"cycles\": 5, \"a\": -1, \"b\": -2", "0");
    ASSERT_EQ(ok.size(), 1u);
    EXPECT_EQ(ok[0].when, 5u);
    EXPECT_EQ(ok[0].core, invalidCore);
    EXPECT_EQ(ok[0].a, ~std::uint64_t{0});
    EXPECT_EQ(ok[0].b, ~std::uint64_t{1});
}

/**
 * A trace's `cycles` are outside input: one event far in the future
 * must not size the dense timeseries. The replay refuses a span past
 * maxReplayWindows with fatal(), before it allocates. The refused
 * case sits just past the bound, so a replay without the check
 * allocates about 100 MB here and fails, rather than the 10^9
 * windows of a 10^14-cycle event.
 */
TEST(OfflineAnalysis, FarEventIsRefusedNotAllocated)
{
    const auto one_event = [](Tick when) {
        return std::vector<TraceEvent>{TraceEvent{
            TraceEventType::chTxBit, TraceCategory::channel, 0, when,
            0, 1, 0}};
    };
    ObsConfig cfg;
    cfg.windowCycles = 1000;
    // Window index maxReplayWindows: one window past the bound.
    EXPECT_THROW(analyzeTrace(one_event(maxReplayWindows * 1000), cfg),
                 std::runtime_error);

    // The bound counts windows, not cycles: with wider windows a
    // 10^14-cycle event is fine.
    cfg.windowCycles = 1'000'000'000;
    const RunHealth wide = analyzeTrace(one_event(100'000'000'000'000),
                                        cfg);
    EXPECT_EQ(wide.series.windows().size(), 100'001u);
    EXPECT_EQ(wide.series.windows().back().txBits, 1u);
}

} // namespace
} // namespace csim
