#include "config/experiment_spec.hh"

#include <cctype>

#include "common/logging.hh"
#include "common/random.hh"
#include "config/field_registry.hh"
#include "config/presets.hh"

namespace csim
{

namespace
{

/** Split a CSV list, trimming blanks; empty input -> empty list. */
std::vector<std::string>
splitCsv(const std::string &text)
{
    std::vector<std::string> out;
    std::string cur;
    for (const char c : text) {
        if (c == ',') {
            out.push_back(cur);
            cur.clear();
        } else if (!std::isspace(static_cast<unsigned char>(c))) {
            cur += c;
        }
    }
    if (!cur.empty() || !out.empty())
        out.push_back(cur);
    return out;
}

/** The fleet.* values that make @p f a fleet, for error messages. */
std::string
fleetName(const FleetSpec &f)
{
    return f.pairs > 1 ? msgCat("fleet.pairs = ", f.pairs)
                       : msgCat("fleet.noise_agents = ", f.noiseAgents);
}

} // namespace

std::size_t
ExperimentSpec::payloadBits() const
{
    if (payload.bits > 0)
        return static_cast<std::size_t>(payload.bits);
    return payload.message.size() * 8;
}

BitString
ExperimentSpec::makePayload() const
{
    if (payload.bits > 0) {
        Rng rng(channel.system.seed + 1);
        return randomBits(rng,
                          static_cast<std::size_t>(payload.bits));
    }
    return textToBits(payload.message);
}

ChannelConfig
ExperimentSpec::toChannelConfig() const
{
    ChannelConfig cfg = channel;
    if (rateKbps > 0.0)
        cfg.params = ChannelParams::forTargetKbps(
            rateKbps, cfg.system.timing, cfg.params);
    if (timeoutMargin > 0.0)
        cfg.timeout = cfg.deriveTimeout(payloadBits(),
                                        timeoutMargin);
    return cfg;
}

std::vector<Scenario>
FleetSpec::scenarios() const
{
    std::vector<Scenario> mix;
    for (const std::string &name : splitCsv(scenarioMix)) {
        try {
            mix.push_back(scenarioFromName(name));
        } catch (const std::exception &) {
            throw ConfigError(msgCat(
                "fleet.scenario_mix entry '", name,
                "' is not a Table I notation or row number"));
        }
    }
    return mix;
}

void
ExperimentSpec::validate() const
{
    const FieldRegistry &reg = FieldRegistry::instance();
    for (const FieldDef &f : reg.fields())
        reg.check(f, f.get(*this));

    if (channel.params.c0 >= channel.params.c1)
        throw ConfigError(msgCat(
            "channel.c0 = ", channel.params.c0,
            " must be smaller than channel.c1 = ",
            channel.params.c1,
            " (the decoder tells bits apart by the count)"));
    if (payload.bits == 0 && payload.message.empty())
        throw ConfigError(
            "payload.message is empty and payload.bits is 0: "
            "nothing to transmit");
    if (channel.system.timing.longTailMin >
        channel.system.timing.longTailMax)
        throw ConfigError(msgCat(
            "system.timing.long_tail_min = ",
            channel.system.timing.longTailMin,
            " must not exceed system.timing.long_tail_max = ",
            channel.system.timing.longTailMax));

    // Every profile but raw is a PHY session: one coherence pair.
    const bool phy = channel.phy.profile != PhyProfile::raw;
    if (phy && channel.vector != VectorKind::coherence)
        throw ConfigError(msgCat(
            "phy.profile = ", phyProfileName(channel.phy.profile),
            " runs only on channel.vector = coherence, not ",
            vectorName(channel.vector)));
    // A fleet runs raw modulation and owns its noise and its safety
    // timeout.
    if (fleet.enabled()) {
        const std::string single =
            msgCat(" runs only on a single pair, not ", fleetName(fleet));
        if (phy)
            throw ConfigError(msgCat(
                "phy.profile = ", phyProfileName(channel.phy.profile),
                single, " (the fleet runs raw modulation)"));
        if (channel.noiseThreads != 0)
            throw ConfigError(msgCat(
                "channel.noise_threads = ", channel.noiseThreads,
                single, " (a fleet's noise is fleet.noise_agents)"));
        if (channel.timeout != ChannelConfig{}.timeout)
            throw ConfigError(msgCat(
                "channel.timeout = ", channel.timeout, single,
                " (a fleet derives its timeout from "
                "channel.timeout_margin)"));
    }

    fleet.scenarios();  // throws on a malformed mix entry
    sweepAxes(*this);  // throws on malformed axis lists
}

GridAxes
sweepAxes(const ExperimentSpec &spec)
{
    GridAxes axes;

    if (spec.sweep.scenarios == "all") {
        for (const ScenarioInfo &sc : allScenarios())
            axes.scenarios.push_back(sc.id);
    } else if (!spec.sweep.scenarios.empty()) {
        for (const std::string &name :
             splitCsv(spec.sweep.scenarios))
            axes.scenarios.push_back(scenarioFromName(name));
        if (axes.scenarios.empty())
            throw ConfigError("sweep.scenarios is a blank list");
    } else {
        axes.scenarios.push_back(spec.channel.scenario);
    }

    if (!spec.sweep.rates.empty()) {
        for (const std::string &r : splitCsv(spec.sweep.rates))
            axes.rates.push_back(parseReal("sweep.rates", r));
    } else if (spec.sweep.stepKbps > 0.0) {
        if (spec.sweep.toKbps < spec.sweep.fromKbps)
            throw ConfigError(msgCat(
                "sweep.to_kbps = ", spec.sweep.toKbps,
                " is below sweep.from_kbps = ",
                spec.sweep.fromKbps));
        for (double r = spec.sweep.fromKbps;
             r <= spec.sweep.toKbps + 1e-9;
             r += spec.sweep.stepKbps)
            axes.rates.push_back(r);
    } else if (spec.sweep.fromKbps > 0.0 ||
               spec.sweep.toKbps > 0.0) {
        throw ConfigError(
            "sweep.from_kbps/to_kbps need sweep.step_kbps > 0");
    } else {
        axes.rates.push_back(spec.rateKbps);
    }
    for (const double r : axes.rates) {
        if (r < 0.0)
            throw ConfigError(msgCat(
                "sweep rate ", r, " Kbps is negative"));
    }

    if (!spec.sweep.noiseLevels.empty()) {
        if (spec.fleet.enabled())
            throw ConfigError(msgCat(
                "sweep.noise_levels = '", spec.sweep.noiseLevels,
                "' runs only on a single pair, not ",
                fleetName(spec.fleet),
                " (a fleet's noise is fleet.noise_agents)"));
        // Each level becomes a point's channel.noise_threads.
        const FieldDef &threads =
            *FieldRegistry::instance().find("channel.noise_threads");
        for (const std::string &n :
             splitCsv(spec.sweep.noiseLevels)) {
            const std::int64_t level =
                parseInteger("sweep.noise_levels", n);
            if (level < threads.min || level > threads.max)
                throw ConfigError(msgCat(
                    "sweep.noise_levels entry ", level, " is outside ",
                    threads.name, "'s range [", threads.min, ", ",
                    threads.max, "]"));
            axes.noiseLevels.push_back(static_cast<int>(level));
        }
    } else {
        axes.noiseLevels.push_back(spec.channel.noiseThreads);
    }

    return axes;
}

std::vector<ExperimentSpec>
expandGrid(const ExperimentSpec &spec)
{
    const GridAxes axes = sweepAxes(spec);
    std::vector<ExperimentSpec> points;
    points.reserve(axes.size());
    for (const Scenario sc : axes.scenarios) {
        for (const double rate : axes.rates) {
            for (const int noise : axes.noiseLevels) {
                ExperimentSpec p = spec;
                p.channel.scenario = sc;
                p.rateKbps = rate;
                p.channel.noiseThreads = noise;
                p.sweep = SweepSpec{};
                points.push_back(std::move(p));
            }
        }
    }
    return points;
}

} // namespace csim
