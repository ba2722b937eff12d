#include "obs/report.hh"

#include <algorithm>

#include "common/table_printer.hh"
#include "runner/json_sink.hh"

namespace csim
{

namespace
{

/**
 * Signed distance between two closed intervals: the gap between
 * them, or minus the overlap width when they intersect.
 */
double
intervalDistance(double lo_a, double hi_a, double lo_b, double hi_b)
{
    if (lo_b > hi_a)
        return lo_b - hi_a;
    if (lo_a > hi_b)
        return lo_a - hi_b;
    return -(std::min(hi_a, hi_b) - std::max(lo_a, lo_b));
}

} // namespace

std::vector<BandAssessment>
assessBands(const RunHealth &health)
{
    std::vector<BandAssessment> out;
    for (std::size_t slot = 0; slot < health.bands.size(); ++slot) {
        const BandStats &b = health.bands[slot];
        if (b.hist.count() == 0)
            continue;
        BandAssessment a;
        a.name = bandSlotName(slot);
        a.samples = b.hist.count();
        a.mean = b.hist.mean();
        a.p5 = b.hist.percentile(5);
        a.p50 = b.hist.percentile(50);
        a.p95 = b.hist.percentile(95);
        a.hasBand = b.hasBand;
        a.bandLo = b.bandLo;
        a.bandHi = b.bandHi;
        a.outsideFraction =
            static_cast<double>(b.outside) /
            static_cast<double>(b.hist.count());
        a.drifted = b.hasBand &&
                    a.outsideFraction >
                        health.config.driftWarnFraction;
        // Separation against every other occupied band: the
        // nearest observed [p5, p95] interval decides the statistic.
        for (std::size_t other = 0; other < health.bands.size();
             ++other) {
            const BandStats &o = health.bands[other];
            if (other == slot || o.hist.count() == 0)
                continue;
            const double d = intervalDistance(
                static_cast<double>(a.p5),
                static_cast<double>(a.p95),
                static_cast<double>(o.hist.percentile(5)),
                static_cast<double>(o.hist.percentile(95)));
            if (!a.hasSeparation || d < a.separation) {
                a.hasSeparation = true;
                a.separation = d;
                a.nearest = bandSlotName(other);
            }
        }
        a.overlap = a.hasSeparation && a.separation < 0.0;
        out.push_back(std::move(a));
    }
    return out;
}

Json
healthJson(const RunHealth &health)
{
    Json root = Json::object();
    Json obs = Json::object();
    obs["window_cycles"] = health.config.windowCycles;
    obs["hist_sub_bits"] = health.config.histSubBits;
    obs["band_core"] = health.config.bandCore;
    obs["drift_warn_fraction"] = health.config.driftWarnFraction;
    root["obs"] = std::move(obs);

    Json bands = Json::array();
    for (const BandAssessment &a : assessBands(health)) {
        Json row = Json::object();
        row["band"] = a.name;
        row["samples"] = a.samples;
        row["mean"] = a.mean;
        row["p5"] = a.p5;
        row["p50"] = a.p50;
        row["p95"] = a.p95;
        if (a.hasBand) {
            row["calibrated_lo"] = a.bandLo;
            row["calibrated_hi"] = a.bandHi;
            row["outside_fraction"] = a.outsideFraction;
        }
        if (a.hasSeparation) {
            row["separation"] = a.separation;
            row["nearest_band"] = a.nearest;
        }
        row["overlap"] = a.overlap;
        row["drifted"] = a.drifted;
        bands.push(std::move(row));
    }
    root["bands"] = std::move(bands);

    root["error_budget"] = health.budget.toJson();
    root["timeseries"] = health.series.toJson();
    return root;
}

std::string
healthCsv(const RunHealth &health)
{
    return health.series.toCsv();
}

void
renderHealthReport(std::ostream &os, const RunHealth &health)
{
    os << "# Run health\n\n";

    os << "## Band separation\n\n";
    const std::vector<BandAssessment> bands = assessBands(health);
    if (bands.empty()) {
        os << "no latency samples recorded (was the mem category "
              "traced?)\n";
    } else {
        TablePrinter table;
        table.header({"band", "samples", "mean", "p5..p95",
                      "calibrated", "outside", "separation",
                      "status"});
        for (const BandAssessment &a : bands) {
            std::string status = "ok";
            if (a.overlap)
                status = "OVERLAP with " + a.nearest;
            else if (a.drifted)
                status = "DRIFT";
            table.row(
                {a.name, std::to_string(a.samples),
                 TablePrinter::num(a.mean),
                 "[" + std::to_string(a.p5) + ", " +
                     std::to_string(a.p95) + "]",
                 a.hasBand ? "[" + TablePrinter::num(a.bandLo) +
                                 ", " + TablePrinter::num(a.bandHi) +
                                 "]"
                           : "-",
                 a.hasBand ? TablePrinter::pct(a.outsideFraction)
                           : "-",
                 a.hasSeparation
                     ? TablePrinter::num(a.separation) + " (" +
                           a.nearest + ")"
                     : "-",
                 status});
        }
        table.print(os);
    }

    os << "\n## Error budget\n\n";
    const WindowCounters totals = health.series.totals();
    os << "bits: " << totals.txBits << " sent, " << totals.rxBits
       << " received; " << health.budget.total()
       << " decode errors\n";
    if (health.budget.total() > 0) {
        TablePrinter table;
        table.header({"cause", "errors", "share"});
        for (int i = 0; i < numErrorCauses; ++i) {
            const auto cause = static_cast<ErrorCause>(i);
            const std::uint64_t n = health.budget.count(cause);
            // PHY-only row; keep legacy-profile reports unchanged.
            if (cause == ErrorCause::fecUncorrectable && n == 0)
                continue;
            table.row({errorCauseName(cause), std::to_string(n),
                       TablePrinter::pct(
                           static_cast<double>(n) /
                           static_cast<double>(
                               health.budget.total()))});
        }
        table.print(os);
    }

    os << "\n## Timeseries\n\n";
    const auto &windows = health.series.windows();
    os << windows.size() << " windows of "
       << health.series.windowCycles() << " cycles\n";
    // Only windows with channel activity or disturbances make the
    // terminal cut (the full series goes to --json/--csv); cap the
    // table so a long sweep stays readable.
    constexpr std::size_t maxRows = 40;
    std::size_t active = 0;
    TablePrinter table;
    table.header({"window", "tx", "rx", "err", "slip", "nack",
                  "retx", "evict", "ksm-", "cow"});
    for (std::size_t i = 0; i < windows.size(); ++i) {
        const WindowCounters &w = windows[i];
        if (w.txBits + w.rxBits + w.bitErrors + w.syncSlips +
                w.nacks + w.retransmits + w.noiseEvictions +
                w.ksmUnmerges + w.cowFaults ==
            0) {
            continue;
        }
        if (++active > maxRows)
            continue;
        table.row({std::to_string(i), std::to_string(w.txBits),
                   std::to_string(w.rxBits),
                   std::to_string(w.bitErrors),
                   std::to_string(w.syncSlips),
                   std::to_string(w.nacks),
                   std::to_string(w.retransmits),
                   std::to_string(w.noiseEvictions),
                   std::to_string(w.ksmUnmerges),
                   std::to_string(w.cowFaults)});
    }
    if (active > 0)
        table.print(os);
    if (active > maxRows) {
        os << "(" << (active - maxRows)
           << " more active windows; see --json/--csv for the full "
              "series)\n";
    }
}

} // namespace csim
