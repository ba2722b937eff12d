/**
 * @file
 * The three benchmark workloads. Each stresses a different mix of
 * simulator layers (README.md gives the reasons):
 *
 *  - sweep: the fig08-sweep grid, one shared calibration, the default
 *    hierarchy — the paper's main path (mem hot path, few-thread
 *    scheduler);
 *  - fleet: eight oversubscribed pairs plus noise agents on one
 *    machine — the scheduler's ready scan and CC-Hunter dominate;
 *  - mixed: seven non-default cell kinds that calibrate per cell and
 *    carry a health monitor — stores, KSM, the PHY codec, obs taps,
 *    non-default replacement/index/inclusivity paths.
 */

#include <algorithm>

#include "bench.hh"

namespace bench
{

using namespace csim;

namespace
{

/** system.seed accepts [0, 1e18]; fold any 64-bit seed into it. */
std::uint64_t
reduceSeed(std::uint64_t x)
{
    return x % 1'000'000'000'000'000'001ULL;
}

ExperimentSpec
resolve(std::uint64_t seed,
        const std::vector<std::string> &presets,
        const std::vector<std::pair<std::string, std::string>> &overrides)
{
    ConfigResolver res;
    res.applyOverride("system.seed", std::to_string(reduceSeed(seed)),
                      "bench");
    for (const std::string &p : presets)
        res.applyPreset(p);
    for (const auto &[k, v] : overrides)
        res.applyOverride(k, v, "bench");
    ExperimentSpec spec = res.spec();
    spec.validate();
    return spec;
}

void
hashChannel(Hasher &h, const ChannelReport &r)
{
    h.bits(r.sent);
    h.bits(r.received);
    const ChannelMetrics &m = r.metrics;
    h.u64(m.pairId);
    h.u64(m.bitsSent);
    h.u64(m.bitsReceived);
    h.f64(m.accuracy);
    h.u64(m.durationCycles);
    h.f64(m.rawKbps);
    h.f64(m.effectiveKbps);
    h.f64(m.payloadKbps);
    h.u64(m.nacks);
    h.u64(m.retransmits);
    h.u64(r.trojan.syncStart);
    h.u64(r.trojan.syncEnd);
    h.u64(r.trojan.txStart);
    h.u64(r.trojan.txEnd);
    h.u64(static_cast<std::uint64_t>(r.trojan.syncProbes));
    h.u64(r.spy.rxStart);
    h.u64(r.spy.rxEnd);
    h.u64(r.spy.sawTransmission);
    h.u64(r.completed);
    hashCounters(h, r.counters);
}

void
hashVerdict(Hasher &h, const LineVerdict &v)
{
    h.u64(v.line);
    h.u64(v.suspicious);
    h.u64(v.flushes);
    h.f64(v.intervalCv);
    h.f64(v.alternation);
    h.u64(v.flaggedAt);
}

/**
 * Fill @p out from a single-pair (plain or PHY) result. A cell's
 * simulated length is the spy's reception end, or the safety stop
 * when the run timed out.
 */
void
fillChannel(CellOutcome &out, const ChannelReport &r, Tick timeout)
{
    const Tick end = !r.completed ? timeout
                     : r.spy.rxEnd ? r.spy.rxEnd
                                   : r.trojan.txEnd;
    out.mcycles = static_cast<double>(end) / 1e6;
    out.units = 1;
    out.timeouts = r.completed ? 0 : 1;
    out.accuracySum = r.metrics.accuracy;
    out.effKbpsSum = r.metrics.effectiveKbps;
    out.counters = r.counters;
}

/** Copy of @p spec carrying the traced pass's scheduler counter. */
ExperimentSpec
withObservers(const ExperimentSpec &spec,
              const CellObservers &observers)
{
    ExperimentSpec s = spec;
    if (observers.sched)
        s.channel.taps.push_back(observers.sched);
    return s;
}

class SweepWorkload : public Workload
{
  public:
    static constexpr std::size_t rounds = 17;

    const char *name() const override { return "sweep"; }

    void
    setup(std::uint64_t seed, Tracer *t) override
    {
        Span s(t, "setup");
        ExperimentSpec base;
        {
            Span r(t, "setup.resolve");
            base = resolve(seed, {"fig08-sweep"}, {});
        }
        {
            Span c(t, "setup.calibrate");
            cal_ = calibrate(base.channel.system, 400);
        }
        Span g(t, "setup.grid");
        axes_ = sweepAxes(base);
        const std::vector<ExperimentSpec> grid = expandGrid(base);
        cells_.clear();
        cells_.reserve(rounds * grid.size());
        for (std::size_t r = 0; r < rounds; ++r) {
            for (const ExperimentSpec &point : grid) {
                ExperimentSpec cell = point;
                cell.channel.system.seed = cellSeed(seed, cells_.size());
                cell.validate();
                cells_.push_back(std::move(cell));
            }
        }
        gridSize_ = grid.size();
    }

    std::size_t planSize() const override { return cells_.size(); }
    std::size_t roundSize() const override { return gridSize_; }
    double tailPercentile() const override { return 99.0; }

    CellOutcome
    runCell(std::size_t i,
            const CellObservers &observers) const override
    {
        const ExperimentSpec spec = withObservers(cells_[i], observers);
        CellOutcome out;
        const double t0 = threadCpuMs();
        ExperimentResult res;
        {
            Span e(observers.tracer, "experiment",
                   static_cast<std::int64_t>(i));
            res = runExperiment(spec, &cal_);
        }
        out.ms = threadCpuMs() - t0;

        fillChannel(out, res.channel, spec.toChannelConfig().timeout);
        Hasher h;
        hashChannel(h, res.channel);
        out.digest = h.value();
        return out;
    }

    std::string
    cellLabel(std::size_t i) const override
    {
        const std::size_t j = i % gridSize_;
        const std::size_t nr = axes_.rates.size();
        return msgCat(scenarioInfo(axes_.scenarios[j / nr]).notation, "@",
                      axes_.rates[j % nr], "K");
    }

    /**
     * peak_kbps: the highest rate at which some scenario's mean
     * accuracy over the rounds reaches 0.90 (the paper reports
     * ~700 Kbps for binary symbols).
     */
    void
    planMetrics(const std::vector<CellOutcome> &cells,
                std::vector<std::pair<std::string, double>> &out)
        const override
    {
        std::vector<double> acc(gridSize_, 0.0);
        std::vector<int> n(gridSize_, 0);
        for (std::size_t i = 0; i < cells.size(); ++i) {
            acc[i % gridSize_] += cells[i].accuracySum;
            ++n[i % gridSize_];
        }
        const std::size_t nr = axes_.rates.size();
        double peak = 0.0;
        for (std::size_t j = 0; j < gridSize_; ++j) {
            if (n[j] > 0 && acc[j] / n[j] >= 0.90)
                peak = std::max(peak, axes_.rates[j % nr]);
        }
        out.emplace_back("peak_kbps", peak);
    }

  private:
    CalibrationResult cal_;
    GridAxes axes_;
    std::vector<ExperimentSpec> cells_;
    std::size_t gridSize_ = 1;
};

class FleetWorkload : public Workload
{
  public:
    static constexpr std::size_t numCells = 16;

    const char *name() const override { return "fleet"; }

    void
    setup(std::uint64_t seed, Tracer *t) override
    {
        Span s(t, "setup");
        ExperimentSpec base;
        {
            Span r(t, "setup.resolve");
            base = resolve(seed, {"fleet-quick"},
                           {{"fleet.pairs", "8"},
                            {"fleet.noise_agents", "4"}});
        }
        {
            // What runFleet would calibrate itself; shared by all
            // cells as the fleet shares it across pairs.
            Span c(t, "setup.calibrate");
            const ChannelConfig cfg = base.toChannelConfig();
            cal_ = calibrate(cfg.system, 400, cfg.params);
        }
        Span g(t, "setup.grid");
        cells_.assign(numCells, base);
        for (std::size_t i = 0; i < numCells; ++i) {
            cells_[i].channel.system.seed = cellSeed(seed, i);
            cells_[i].validate();
        }
    }

    std::size_t planSize() const override { return cells_.size(); }
    std::size_t roundSize() const override { return 1; }
    double tailPercentile() const override { return 50.0; }

    CellOutcome
    runCell(std::size_t i,
            const CellObservers &observers) const override
    {
        const ExperimentSpec spec = withObservers(cells_[i], observers);
        CellOutcome out;
        const double t0 = threadCpuMs();
        ExperimentResult res;
        {
            Span e(observers.tracer, "experiment",
                   static_cast<std::int64_t>(i));
            res = runExperiment(spec, &cal_);
        }
        out.ms = threadCpuMs() - t0;

        const FleetReport &f = res.fleet;
        out.mcycles = static_cast<double>(f.durationCycles) / 1e6;
        out.units = static_cast<int>(f.pairs.size());
        out.detected = f.pairsFlagged;
        out.counters = f.counters;
        Hasher h;
        for (const PairReport &p : f.pairs) {
            out.timeouts += p.completed ? 0 : 1;
            out.accuracySum += p.metrics.accuracy;
            out.effKbpsSum += p.metrics.effectiveKbps;
            h.u64(p.pairId);
            h.u64(static_cast<std::uint64_t>(p.scenario));
            h.bits(p.sent);
            h.bits(p.received);
            h.f64(p.metrics.accuracy);
            h.u64(p.metrics.durationCycles);
            h.f64(p.metrics.effectiveKbps);
            h.u64(p.metrics.nacks);
            h.u64(p.metrics.retransmits);
            h.u64(p.completed);
            h.u64(p.sharedLine);
            hashVerdict(h, p.detect);
        }
        hashVerdict(h, f.aggregate);
        h.u64(static_cast<std::uint64_t>(f.pairsFlagged));
        h.u64(f.completed);
        h.u64(f.durationCycles);
        hashCounters(h, f.counters);
        out.digest = h.value();
        return out;
    }

    std::string
    cellLabel(std::size_t) const override
    {
        return "fleet-8x4";
    }

    void
    planMetrics(const std::vector<CellOutcome> &cells,
                std::vector<std::pair<std::string, double>> &out)
        const override
    {
        double pairs = 0, flagged = 0;
        for (const CellOutcome &c : cells) {
            pairs += c.units;
            flagged += c.detected;
        }
        out.emplace_back("detected_frac", pairs > 0 ? flagged / pairs : 0);
    }

  private:
    CalibrationResult cal_;
    std::vector<ExperimentSpec> cells_;
};

class MixedWorkload : public Workload
{
  public:
    static constexpr std::size_t rounds = 50;

    const char *name() const override { return "mixed"; }

    void
    setup(std::uint64_t seed, Tracer *t) override
    {
        Span s(t, "setup");
        struct Kind
        {
            const char *label;
            std::vector<std::string> presets;
            std::vector<std::pair<std::string, std::string>> overrides;
        };
        static const std::vector<Kind> kinds = {
            {"dirty", {"dirty-quick"}, {}},
            {"lru-plru", {"lru-quick"}, {{"mem.replacement", "plru"}}},
            {"pagefault", {"pagefault-quick"}, {}},
            {"phy", {"phy-quick"}, {}},
            {"remap", {"quick", "defense-remap"}, {}},
            {"mirage", {"quick", "defense-mirage"}, {}},
            {"exclusive",
             {"quick"},
             {{"mem.inclusivity", "exclusive"},
              {"channel.noise_threads", "2"}}},
        };
        std::vector<ExperimentSpec> bases;
        {
            Span r(t, "setup.resolve");
            for (const Kind &k : kinds)
                bases.push_back(resolve(seed, k.presets, k.overrides));
        }
        Span g(t, "setup.grid");
        labels_.clear();
        cells_.clear();
        cells_.reserve(rounds * kinds.size());
        for (std::size_t r = 0; r < rounds; ++r) {
            for (std::size_t k = 0; k < kinds.size(); ++k) {
                ExperimentSpec cell = bases[k];
                cell.channel.system.seed = cellSeed(seed, cells_.size());
                cell.validate();
                cells_.push_back(std::move(cell));
            }
        }
        for (const Kind &k : kinds)
            labels_.push_back(k.label);
    }

    std::size_t planSize() const override { return cells_.size(); }
    std::size_t roundSize() const override { return labels_.size(); }
    double tailPercentile() const override { return 97.0; }

    /**
     * Each cell calibrates inside runExperiment, as one
     * `cohersim transmit` does, and carries a run-health monitor.
     */
    CellOutcome
    runCell(std::size_t i,
            const CellObservers &observers) const override
    {
        ObsStats scratch;
        ObsStats &stats = observers.obs ? *observers.obs : scratch;
        RunHealthMonitor monitor(cells_[i].obs);
        HealthTap tap(monitor, stats, observers.obs != nullptr);
        ExperimentSpec spec = cells_[i];
        spec.channel.taps.push_back(&tap);
        if (observers.sched)
            spec.channel.taps.push_back(observers.sched);

        CellOutcome out;
        const double t0 = threadCpuMs();
        ExperimentResult res;
        {
            Span e(observers.tracer, "experiment",
                   static_cast<std::int64_t>(i));
            res = runExperiment(spec);
        }
        RunHealth health;
        {
            Span f(observers.tracer, "obs.finalize",
                   static_cast<std::int64_t>(i));
            const Clock::time_point f0 = Clock::now();
            health = monitor.finalize();
            stats.finalizeMs += msSince(f0);
        }
        out.ms = threadCpuMs() - t0;

        fillChannel(out, res.channel, spec.toChannelConfig().timeout);
        Hasher h;
        h.u64(static_cast<std::uint64_t>(res.kind));
        hashChannel(h, res.channel);
        h.str(healthJson(health).dump());
        out.digest = h.value();
        return out;
    }

    std::string
    cellLabel(std::size_t i) const override
    {
        return labels_[i % labels_.size()];
    }

  private:
    std::vector<std::string> labels_;
    std::vector<ExperimentSpec> cells_;
};

} // namespace

std::uint64_t
cellSeed(std::uint64_t seed, std::size_t cell)
{
    return reduceSeed(deriveSeed(seed, cell));
}

void
hashCounters(Hasher &h, const CounterRegistry &reg)
{
    // trace.* count bus deliveries, which the benchmark's own taps
    // change; every other counter is simulated state.
    for (const auto &[name, value] : reg.entries()) {
        if (name.rfind("trace.", 0) == 0)
            continue;
        h.str(name);
        h.u64(value);
    }
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "sweep")
        return std::make_unique<SweepWorkload>();
    if (name == "fleet")
        return std::make_unique<FleetWorkload>();
    if (name == "mixed")
        return std::make_unique<MixedWorkload>();
    return nullptr;
}

} // namespace bench
