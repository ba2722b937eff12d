#include "channel/symbols.hh"

#include <algorithm>
#include <array>
#include <cmath>

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
                 const ChannelParams &params,
                 const SymbolParams &sym_params, Tick period,
                 const std::vector<int> &symbols, TrojanResult &out)
{
    co_await trojanSyncPhase(api, block, cal, params, out);
    out.txStart = api.now();
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
    co_await hold_symbol(0, sym_params.cs + 2);
    co_await hold_quiet(sym_params.cbSym);
    for (int sym : symbols) {
        co_await hold_symbol(sym, sym_params.cs);
        co_await hold_quiet(sym_params.cbSym);
    }
    crew.idle();
    out.txEnd = api.now();
}

Task
symbolSpyBody(ThreadApi api, VAddr block, const CalibrationResult &cal,
              const ChannelParams &params,
              const SymbolParams &sym_params,
              std::vector<int> &symbols_out,
              std::vector<SpySample> &trace, bool collect_trace)
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
            if (++consecutive >= 2)
                break;
        } else {
            consecutive = 0;
        }
    }

    // Phase 2: reception. Counts per symbol value accumulate while
    // in-band; a quiet run of cbSym samples commits the symbol by
    // majority vote.
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
        symbols_out.push_back(
            static_cast<int>(best - counts.begin()));
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
            trace.push_back(SpySample{api.now(), lat});
        const int sym = decision.classify(static_cast<double>(lat));
        if (sym >= 0) {
            ++counts[static_cast<std::size_t>(sym)];
            quiet_run = 0;
        } else {
            ++quiet_run;
            if (quiet_run == sym_params.commitQuiet())
                commit();
            if (quiet_run >= sym_params.endN)
                break;
        }
    }
    commit();
    // Drop the preamble symbol.
    if (!symbols_out.empty())
        symbols_out.erase(symbols_out.begin());
}

} // namespace

SymbolReport
runSymbolTransmission(const ChannelConfig &cfg_in,
                      const BitString &payload,
                      const SymbolParams &sym_params,
                      const CalibrationResult *cal)
{
    // The symbol channel needs the full crew: two loaders per socket.
    ExperimentRig rig(cfg_in, cal, 2, 2);
    const ChannelConfig &cfg = rig.cfg;

    BitString padded = payload;
    if (padded.size() % bitsPerSymbol)
        padded.push_back(0);

    SymbolReport report;
    report.sent = padded;
    report.sentSymbols = bitsToSymbols(padded, bitsPerSymbol);

    const Tick period =
        cfg.params.nominalSamplePeriod(cfg.system.timing);
    report.completed = rig.run(
        [&](ThreadApi api) {
            return symbolTrojanBody(api, *rig.crew,
                                    rig.shared.trojanVa, rig.cal,
                                    cfg.params, sym_params, period,
                                    report.sentSymbols,
                                    report.trojan);
        },
        [&](ThreadApi api) {
            return symbolSpyBody(api, rig.shared.spyVa, rig.cal,
                                 cfg.params, sym_params,
                                 report.receivedSymbols, report.trace,
                                 cfg.collectTrace);
        },
        report.trojan);

    report.received =
        symbolsToBits(report.receivedSymbols, bitsPerSymbol);
    report.metrics = computeMetrics(
        report.sent, report.received, report.trojan.txStart,
        report.trojan.txEnd ? report.trojan.txEnd
                            : rig.machine.sched.now(),
        cfg.system.timing);
    return report;
}

} // namespace csim
