#include "channel/symbols.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "channel/trace_hooks.hh"
#include "channel/vector.hh"
#include "common/logging.hh"

namespace csim
{

Combo
symbolCombo(int symbol)
{
    panic_if(symbol < 0 || symbol >= 4, "symbol out of range: ",
             symbol);
    return allCombos()[static_cast<std::size_t>(symbol)];
}

namespace
{

/** Sample periods a symbol's combination is held. */
constexpr int symbolPeriods = 3;
/** Quiet sample periods the trojan holds between symbols. */
constexpr int quietPeriods = 3;
/**
 * Consecutive quiet samples after which the spy commits the current
 * symbol; kept below quietPeriods so jittered sampling never misses
 * a boundary.
 */
constexpr int commitQuiet = quietPeriods - 1;
/** Consecutive quiet samples ending the session. */
constexpr int endQuiet = 14;

/** The four symbol decision bands with gaps partially claimed. */
struct SymbolBands
{
    SymbolBands(const CalibrationResult &cal, double gap_claim)
        : dram(cal.dramBand)
    {
        for (int s = 0; s < 4; ++s)
            bands[s] = cal.band(symbolCombo(s));
        std::vector<LatencyBand *> used = {&bands[0], &bands[1],
                                           &bands[2], &bands[3],
                                           &dram};
        claimGaps(used, gap_claim);
    }

    /** Symbol value for a latency, or -1 when out of band.
     *  Overlapping bands resolve to the nearest band centre. */
    int
    classify(double lat) const
    {
        int best = -1;
        double best_dist = 0.0;
        for (int s = 0; s < 4; ++s) {
            if (!bands[s].contains(lat))
                continue;
            const double dist = std::abs(lat - bands[s].mid());
            if (best < 0 || dist < best_dist) {
                best = s;
                best_dist = dist;
            }
        }
        return best;
    }

    std::array<LatencyBand, 4> bands;
    LatencyBand dram;
};

Task
symbolTrojanBody(ThreadApi api, PlacerCrew &crew, VAddr block,
                 const CalibrationResult &cal,
                 const ChannelParams &params, Tick period,
                 const std::vector<int> &symbols, TrojanResult &out)
{
    co_await trojanSyncPhase(api, block, cal, params, out);
    out.txStart = api.now();
    const std::uint64_t wire_bits = symbols.size() * bitsPerSymbol;
    chEvent(api, TraceEventType::chTxStart, wire_bits);
    Tick phase_start = api.now();
    // Phase switches do not flush B (see trojanTransmit): the spy's
    // per-sample flush retires stale copies within one sample.
    auto hold_symbol = [&](int sym, int periods) -> Task {
        crew.activate(symbolCombo(sym), block);
        phase_start += static_cast<Tick>(periods) * period;
        co_await api.spinUntil(phase_start);
    };
    auto hold_quiet = [&](int periods) -> Task {
        crew.idle();
        phase_start += static_cast<Tick>(periods) * period;
        co_await api.spinUntil(phase_start);
    };
    // Lead-in: a preamble symbol the spy discards, so it can lock on.
    co_await hold_symbol(0, symbolPeriods + 2);
    co_await hold_quiet(quietPeriods);
    for (int sym : symbols) {
        for (int b = bitsPerSymbol - 1; b >= 0; --b) {
            chEvent(api, TraceEventType::chTxBit,
                    static_cast<std::uint64_t>((sym >> b) & 1));
        }
        co_await hold_symbol(sym, symbolPeriods);
        co_await hold_quiet(quietPeriods);
    }
    crew.idle();
    out.txEnd = api.now();
    chEvent(api, TraceEventType::chTxEnd, wire_bits);
}

/**
 * Decode symbols into @p out.bits. An odd payload of @p payload_bits
 * rides a zero pad bit in its last symbol; the pad's slot is dropped
 * so the received bits line up with the payload.
 */
Task
symbolSpyBody(ThreadApi api, VAddr block, const CalibrationResult &cal,
              const ChannelParams &params, std::size_t payload_bits,
              SpyResult &out, bool collect_trace)
{
    const SymbolBands decision(cal, params.gapClaim);
    // Phase 1: wait for the preamble (two consecutive in-band
    // samples of any symbol value).
    int consecutive = 0;
    for (;;) {
        co_await api.flush(block);
        co_await api.spin(params.ts);
        const Tick lat = co_await api.load(block);
        if (decision.classify(static_cast<double>(lat)) >= 0) {
            if (++consecutive >= 2) {
                out.sawTransmission = true;
                out.rxStart = api.now();
                chEvent(api, TraceEventType::chRxStart);
                break;
            }
        } else {
            consecutive = 0;
        }
    }

    // Phase 2: reception. Counts per symbol value accumulate while
    // in-band; a quiet run of commitQuiet samples commits the symbol
    // by majority vote.
    std::vector<int> symbols;
    std::uint64_t rx_bits = 0;
    std::array<int, 4> counts{};
    auto have_samples = [&] {
        return std::any_of(counts.begin(), counts.end(),
                           [](int c) { return c > 0; });
    };
    auto commit = [&] {
        if (!have_samples())
            return;
        const auto best =
            std::max_element(counts.begin(), counts.end());
        const int sym = static_cast<int>(best - counts.begin());
        // The first commit is the preamble symbol, dropped below.
        for (int b = bitsPerSymbol - 1; !symbols.empty() && b >= 0;
             --b) {
            chEvent(api, TraceEventType::chRxBit,
                    static_cast<std::uint64_t>((sym >> b) & 1),
                    rx_bits++);
        }
        symbols.push_back(sym);
        counts.fill(0);
    };
    // The two lock-on samples belong to the preamble symbol.
    counts[0] = 2;
    int quiet_run = 0;
    for (;;) {
        co_await api.flush(block);
        co_await api.spin(params.ts);
        const Tick lat = co_await api.load(block);
        if (collect_trace)
            out.trace.push_back(SpySample{api.now(), lat});
        const int sym = decision.classify(static_cast<double>(lat));
        if (sym >= 0) {
            ++counts[static_cast<std::size_t>(sym)];
            quiet_run = 0;
        } else {
            ++quiet_run;
            if (quiet_run == commitQuiet)
                commit();
            if (quiet_run >= endQuiet)
                break;
        }
    }
    commit();
    out.rxEnd = api.now();
    // Drop the preamble symbol.
    if (!symbols.empty())
        symbols.erase(symbols.begin());
    out.bits = symbolsToBits(symbols, bitsPerSymbol);
    if (payload_bits % bitsPerSymbol != 0 && !out.bits.empty())
        out.bits.pop_back();
    chEvent(api, TraceEventType::chRxEnd, out.bits.size());
}

/**
 * The 2-bit symbol channel as a leakage vector: the coherence
 * vector's calibration, with every combination a symbol value.
 */
class Coherence2bitVector final : public LeakageVector
{
  public:
    VectorKind kind() const override { return VectorKind::coherence2bit; }

    CalibrationResult
    calibrate(const ChannelConfig &cfg) const override
    {
        return csim::calibrate(cfg.system, 400, cfg.params);
    }

    /** All four combinations are in play: the full crew. */
    int localLoaders(const ScenarioInfo &) const override { return 2; }
    int remoteLoaders(const ScenarioInfo &) const override { return 2; }

    Task
    trojanTask(ThreadApi api, VectorRun &run) override
    {
        BitString padded = run.payload;
        if (padded.size() % bitsPerSymbol)
            padded.push_back(0);
        symbols_ = bitsToSymbols(padded, bitsPerSymbol);
        return symbolTrojanBody(
            api, *run.rig.crew, run.rig.shared.trojanVa, run.cal,
            run.cfg.params,
            run.cfg.params.nominalSamplePeriod(run.cfg.system.timing),
            symbols_, run.trojan);
    }

    Task
    spyTask(ThreadApi api, VectorRun &run) override
    {
        return symbolSpyBody(api, run.rig.shared.spyVa, run.cal,
                             run.cfg.params, run.payload.size(),
                             run.spy, run.collectTrace);
    }

  private:
    /** The trojan's wire symbols; outlive its coroutine. */
    std::vector<int> symbols_;
};

} // namespace

std::unique_ptr<LeakageVector>
makeCoherence2bitVector()
{
    return std::make_unique<Coherence2bitVector>();
}

} // namespace csim
