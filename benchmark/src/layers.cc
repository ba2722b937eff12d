/**
 * @file
 * The traced run: benchmark-side taps, the per-layer breakdown and
 * the trace file.
 *
 * Layers are the src/ modules. Host time comes from two sources, both
 * outside the simulator: the benchmark's own spans (set-up phases,
 * each runExperiment call, each health-monitor finalize) and the
 * existing src/prof spans (rig.calibrate/run/decode, experiment.*,
 * phy.*, detect.*). "est" figures are a sampled span's mean cost times
 * the number of calls. The mem hot-path samples record virtual cycles
 * but no host time, so mem host time stays inside sim.self_ms.
 */

#include <iomanip>
#include <iostream>

#include "bench.hh"

namespace bench
{

using namespace csim;

double
Tracer::totalMs(const std::string &name) const
{
    double ms = 0.0;
    for (const SpanRecord &s : spans) {
        if (s.name == name)
            ms += s.endMs - s.startMs;
    }
    return ms;
}

void
SchedCounter::attach(TraceBus &bus, int)
{
    detach();
    bus_ = &bus;
    sub_ = bus.subscribe(categoryBit(TraceCategory::sched),
                         [this](const TraceEvent &ev) {
        switch (ev.type) {
          case TraceEventType::schedSwitch: ++switches; break;
          case TraceEventType::schedPreempt: ++preempts; break;
          case TraceEventType::schedSleep: ++sleeps; break;
          default: break;
        }
    });
}

void
SchedCounter::detach()
{
    if (bus_) {
        bus_->unsubscribe(sub_);
        bus_ = nullptr;
    }
}

namespace
{

/** Time one health-monitor observe call in this many. */
constexpr std::uint32_t obsSampleStride = 64;

/** Categories RunHealthMonitor::attach subscribes. */
constexpr std::uint32_t healthMask =
    categoryBit(TraceCategory::mem) |
    categoryBit(TraceCategory::coherence) |
    categoryBit(TraceCategory::os) | categoryBit(TraceCategory::channel);

} // namespace

void
HealthTap::attach(TraceBus &bus, int)
{
    detach();
    bus_ = &bus;
    sub_ = bus.subscribe(healthMask, [this](const TraceEvent &ev) {
        ++stats_.events;
        if (timed_ && --countdown_ == 0) {
            countdown_ = obsSampleStride;
            const Clock::time_point t0 = Clock::now();
            monitor_.observe(ev);
            stats_.timedNs += msSince(t0) * 1e6;
            ++stats_.timed;
            return;
        }
        monitor_.observe(ev);
    });
}

void
HealthTap::detach()
{
    if (bus_) {
        bus_->unsubscribe(sub_);
        bus_ = nullptr;
    }
}

namespace
{

/** Sum of counter @p name over the first @p plan cells. */
double
counterSum(const Pass &p, std::size_t plan, const std::string &name)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < plan; ++i)
        sum += static_cast<double>(p.cells[i].counters.value(name));
    return sum;
}

/** Sum over counters whose name contains @p part (e.g. "ch.phy."). */
double
counterSumMatching(const Pass &p, std::size_t plan,
                   const std::string &part)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < plan; ++i) {
        for (const auto &[name, v] : p.cells[i].counters.entries()) {
            if (name.find(part) != std::string::npos)
                sum += static_cast<double>(v);
        }
    }
    return sum;
}

/** Perfetto document: benchmark spans plus the profiler's tracks. */
Json
traceDocument(const Workload &w, std::uint64_t seed, const Tracer &tracer,
              const ProfileSnapshot &snap,
              const std::vector<Metric> &metrics)
{
    Json doc = Json::object();
    doc["schema"] = "cohersim.bench.trace.v1";
    doc["workload"] = w.name();
    doc["seed"] = seed;
    Json layers = Json::object();
    for (const Metric &m : metrics)
        layers[m.name] = m.value;
    doc["per_layer"] = std::move(layers);
    doc["profile"] = profileJson(snap);

    // Benchmark spans on their own lane, wall time from the
    // benchmark's epoch; args carry the parent span and the cell
    // (request id) each span served.
    constexpr int benchPid = 98;
    Json &events = doc["traceEvents"];
    events = Json::array();
    {
        Json meta = Json::object();
        meta["name"] = "process_name";
        meta["ph"] = "M";
        meta["pid"] = benchPid;
        meta["tid"] = 0;
        Json args = Json::object();
        args["name"] = "cohersim_bench spans (wall time)";
        meta["args"] = std::move(args);
        events.push(std::move(meta));
    }
    for (std::size_t i = 0; i < tracer.spans.size(); ++i) {
        const SpanRecord &s = tracer.spans[i];
        Json ev = Json::object();
        ev["name"] = s.name;
        ev["cat"] = "bench";
        ev["ph"] = "X";
        ev["ts"] = s.startMs * 1e3;
        ev["dur"] = (s.endMs - s.startMs) * 1e3;
        ev["pid"] = benchPid;
        ev["tid"] = 1;
        Json args = Json::object();
        args["id"] = static_cast<std::int64_t>(i);
        args["parent"] = s.parent;
        args["cell"] = s.cell;
        ev["args"] = std::move(args);
        events.push(std::move(ev));
    }
    appendProfilerTracks(doc, snap);
    Json &other = doc["otherData"];
    if (!other.isObject())
        other = Json::object();
    other["bench_timebase"] =
        "bench spans: wall ms from the benchmark's own epoch; not "
        "aligned with the profiler lanes";
    return doc;
}

} // namespace

const std::vector<std::string> &
resultLayerMetrics()
{
    // Host times here are non-zero on every workload; layer times that
    // exist on one workload only (detect, phy, obs, decode, rig build)
    // are printed and written to the trace file instead.
    static const std::vector<std::string> names = {
        "config.resolve_ms",      "runner.overhead_ms",
        "channel.calibrate_ms",   "channel.run_ms",
        "sim.self_ms",            "trace_overhead_frac",
        "channel.calibrate_calls", "sched.switches",
        "sched.preempts",         "sched.sleeps",
        "mem.loads",              "mem.stores",
        "mem.flushes",            "mem.l1_hit_frac",
        "mem.l2_hit_frac",        "coh.llc_serves",
        "coh.owner_forwards",     "coh.writebacks",
        "coh.back_invalidations", "coh.upgrades",
        "link.dram_accesses",     "link.queue_wait_mcycles",
        "os.cow_faults",          "ksm.pages_merged",
        "detect.observe_calls",   "obs.events",
        "trace.published",
    };
    return names;
}

TracedRun
runTraced(Workload &w, std::uint64_t seed, std::size_t plan,
          const Pass &plain)
{
    // The profiler arms its mem/detector sampling when a machine is
    // built, so it must be on before the traced set-up builds any.
    Profiler::instance().reset();
    Profiler::setCaptureTracks(true);
    Profiler::setEnabled(true);
    Tracer tracer;
    SchedCounter sched;
    ObsStats obs;
    const CellObservers observers{&tracer, &sched, &obs};
    TracedRun out;
    w.setup(seed, &tracer);
    {
        Span pass(&tracer, "pass");
        out.pass = runPass(w, plan, 0.0, observers);
    }
    const ProfileSnapshot snap = Profiler::instance().snapshot();
    Profiler::setEnabled(false);
    Profiler::setCaptureTracks(false);

    const auto wallMs = [&](const char *name) {
        return static_cast<double>(snap.totalOf(name).wallNs) / 1e6;
    };

    // config, runner
    const double setup = tracer.totalMs("setup");
    const double resolve = tracer.totalMs("setup.resolve");
    const double setup_cal = tracer.totalMs("setup.calibrate");
    const double cells = tracer.totalMs("cell");
    const double runner = out.pass.wallMs - out.pass.probeWallMs - cells;

    // channel
    double setup_cal_calls = 0;
    for (const SpanRecord &s : tracer.spans)
        setup_cal_calls += s.name == "setup.calibrate" ? 1 : 0;
    const double rig_cal = wallMs("rig.calibrate");
    const double rig_run = wallMs("rig.run");
    const double fleet = wallMs("experiment.fleet");
    const double decode = wallMs("rig.decode");
    const double phy_encode = wallMs("phy.encode");
    const double phy_decode =
        wallMs("phy.decode.header") + wallMs("phy.decode.body");
    const double phy_final = wallMs("phy.finalize");
    const double single_phy =
        wallMs("experiment.single") + wallMs("experiment.phy");
    const double rig_build = single_phy > 0.0
        ? single_phy - rig_cal - rig_run - decode - phy_encode - phy_final
        : 0.0;

    // detect: 1-in-sampleStride observe calls carry host time.
    const SpanStats dobs = snap.totalOf("detect.observe");
    const double detect_calls =
        static_cast<double>(dobs.count) * Profiler::sampleStride;
    const double observe_ns =
        dobs.count ? static_cast<double>(dobs.wallNs) / dobs.count : 0.0;
    const double detect_est = observe_ns * detect_calls / 1e6;
    const double detect_score = wallMs("detect.score");

    // obs
    const double obs_ns = obs.timed ? obs.timedNs / obs.timed : 0.0;
    const double obs_est = obs_ns * static_cast<double>(obs.events) / 1e6;

    // sim: the simulation loop minus the layers it calls into that
    // carry their own host time. mem ops are sampled for virtual
    // cycles only, so mem host time is part of this figure.
    const double sim_self =
        rig_run + fleet - detect_est - detect_score - phy_decode - obs_est;
    const double bench_cells = cells - tracer.totalMs("experiment") -
                               tracer.totalMs("obs.finalize");

    const auto vmean = [&](const char *name) {
        const SpanStats s = snap.totalOf(name);
        return s.count ? static_cast<double>(s.vcycles) / s.count : 0.0;
    };
    const auto c = [&](const char *name) {
        return counterSum(plain, plan, name);
    };
    const double loads = c("mem.loads");

    std::vector<Metric> &m = out.metrics;
    m.push_back({"config.resolve_ms", resolve, "ms"});
    m.push_back({"runner.overhead_ms", runner, "ms"});
    m.push_back({"channel.calibrate_ms", setup_cal + rig_cal, "ms"});
    const SpanStats rig_cal_span = snap.totalOf("rig.calibrate");
    m.push_back({"channel.calibrate_calls",
                 setup_cal_calls + static_cast<double>(rig_cal_span.count),
                 "count"});
    m.push_back({"channel.rig_build_ms", rig_build, "ms"});
    m.push_back({"channel.run_ms", rig_run + fleet, "ms"});
    m.push_back({"channel.decode_ms", decode, "ms"});
    const auto mcycles = [&](const char *name) {
        return static_cast<double>(snap.totalOf(name).vcycles) / 1e6;
    };
    m.push_back({"channel.sync_mcycles", mcycles("rig.sync"), "Mcycles"});
    m.push_back({"channel.transmit_mcycles", mcycles("rig.transmit"),
                 "Mcycles"});
    m.push_back({"sim.self_ms", sim_self, "ms"});
    m.push_back({"sched.switches", static_cast<double>(sched.switches),
                 "count"});
    m.push_back({"sched.preempts", static_cast<double>(sched.preempts),
                 "count"});
    m.push_back({"sched.sleeps", static_cast<double>(sched.sleeps),
                 "count"});
    m.push_back({"mem.loads", loads, "count"});
    m.push_back({"mem.stores", c("mem.stores"), "count"});
    m.push_back({"mem.flushes", c("mem.flushes"), "count"});
    m.push_back({"mem.l1_hit_frac", loads ? c("mem.l1_hits") / loads : 0.0,
                 "fraction"});
    m.push_back({"mem.l2_hit_frac", loads ? c("mem.l2_hits") / loads : 0.0,
                 "fraction"});
    m.push_back({"mem.load_vcycles", vmean("mem.load"), "cycles"});
    m.push_back({"mem.store_vcycles", vmean("mem.store"), "cycles"});
    m.push_back({"mem.flush_vcycles", vmean("mem.flush"), "cycles"});
    m.push_back({"coh.llc_serves",
                 c("coh.local_llc_serves") + c("coh.remote_llc_serves"),
                 "count"});
    m.push_back({"coh.owner_forwards",
                 c("coh.local_owner_forwards") +
                     c("coh.remote_owner_forwards"),
                 "count"});
    m.push_back({"coh.writebacks", c("coh.writebacks"), "count"});
    m.push_back({"coh.back_invalidations", c("coh.back_invalidations"),
                 "count"});
    m.push_back({"coh.upgrades", c("coh.upgrades"), "count"});
    m.push_back({"link.dram_accesses", c("link.dram_accesses"), "count"});
    m.push_back({"link.queue_wait_mcycles",
                 c("link.queue_wait_cycles") / 1e6, "Mcycles"});
    m.push_back({"os.cow_faults", c("os.cow_faults"), "count"});
    m.push_back({"ksm.pages_scanned", c("ksm.pages_scanned"), "count"});
    m.push_back({"ksm.pages_merged", c("ksm.pages_merged"), "count"});
    m.push_back({"ksm.pages_unmerged", c("ksm.pages_unmerged"), "count"});
    m.push_back({"phy.encode_ms", phy_encode, "ms"});
    m.push_back({"phy.decode_ms", phy_decode + phy_final, "ms"});
    m.push_back({"phy.counters", counterSumMatching(plain, plan, "ch.phy."),
                 "count"});
    m.push_back({"detect.observe_calls", detect_calls, "count"});
    m.push_back({"detect.observe_ns", observe_ns, "ns"});
    m.push_back({"detect.est_ms", detect_est, "ms"});
    m.push_back({"detect.score_ms", detect_score, "ms"});
    m.push_back({"obs.events", static_cast<double>(obs.events), "count"});
    m.push_back({"obs.observe_ns", obs_ns, "ns"});
    m.push_back({"obs.finalize_ms", obs.finalizeMs, "ms"});
    m.push_back({"trace.published", c("trace.published"), "count"});
    m.push_back({"trace.dropped", c("trace.dropped"), "count"});
    // Both passes at reference host speed, so host drift between them
    // does not pose as tracing cost.
    const double overhead = out.pass.refMs / plain.refMs - 1.0;
    m.push_back({"trace_overhead_frac", overhead, "fraction"});

    // Self time per layer over the traced set-up and pass.
    const double total = setup + out.pass.wallMs - out.pass.probeWallMs;
    const std::vector<std::pair<const char *, double>> rows = {
        {"config (resolve + grid build)", setup - setup_cal},
        {"channel.calibrate", setup_cal + rig_cal},
        {"channel rig build", rig_build},
        {"channel.decode", decode},
        {"sim (incl. mem)", sim_self},
        {"detect", detect_est + detect_score},
        {"phy", phy_encode + phy_decode + phy_final},
        {"obs", obs_est + obs.finalizeMs},
        {"runner", runner},
        {"bench (digests, copies)", bench_cells},
    };
    std::cout << "-- per-layer self time, traced " << w.name() << " ("
              << std::fixed << std::setprecision(1) << total
              << " ms; tracing overhead " << overhead * 100.0
              << "%) --\n";
    for (const auto &[layer, ms] : rows) {
        std::cout << "  " << std::left << std::setw(32) << layer
                  << std::right << std::setw(10) << ms << " ms "
                  << std::setw(6) << ms / total * 100.0 << "%\n";
    }
    std::cout.unsetf(std::ios::floatfield);
    std::cout << std::setprecision(6);

    writeJsonFile(std::string(BENCH_BUILD_DIR) + "/trace_" + w.name() +
                      ".json",
                  traceDocument(w, seed, tracer, snap, out.metrics));
    return out;
}

} // namespace bench
