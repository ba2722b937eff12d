#include "config/field_registry.hh"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <type_traits>

#include "common/edit_distance.hh"
#include "common/logging.hh"
#include "config/presets.hh"
#include "phy/phy_config.hh"
#include "runner/json_sink.hh"

namespace csim
{

namespace
{

std::string
joinChoices(const std::vector<std::string> &choices)
{
    std::string out;
    for (const std::string &c : choices) {
        if (!out.empty())
            out += ", ";
        out += c;
    }
    return out;
}

/** Format a double the way Json::dump does (shortest exact form). */
std::string
formatReal(double d)
{
    std::ostringstream os;
    os.precision(17);
    os << d;
    return os.str();
}

} // namespace

const char *
fieldTypeName(FieldDef::Type t)
{
    switch (t) {
      case FieldDef::Type::boolean: return "bool";
      case FieldDef::Type::integer: return "int";
      case FieldDef::Type::real: return "real";
      case FieldDef::Type::text: return "text";
      case FieldDef::Type::choice: return "choice";
    }
    return "?";
}

std::string
FieldDef::format(const FieldValue &value) const
{
    switch (type) {
      case Type::boolean:
        return std::get<bool>(value) ? "true" : "false";
      case Type::integer:
        return std::to_string(std::get<std::int64_t>(value));
      case Type::real:
        return formatReal(std::get<double>(value));
      case Type::text:
      case Type::choice:
        return std::get<std::string>(value);
    }
    return "?";
}

const FieldRegistry &
FieldRegistry::instance()
{
    static const FieldRegistry registry;
    return registry;
}

const FieldDef *
FieldRegistry::find(const std::string &name) const
{
    for (const FieldDef &f : fields_) {
        if (f.name == name)
            return &f;
        for (const std::string &alias : f.aliases) {
            if (alias == name)
                return &f;
        }
    }
    return nullptr;
}

void
FieldRegistry::check(const FieldDef &field,
                     const FieldValue &value) const
{
    if (field.type == FieldDef::Type::integer ||
        field.type == FieldDef::Type::real) {
        const double v =
            field.type == FieldDef::Type::integer
                ? static_cast<double>(std::get<std::int64_t>(value))
                : std::get<double>(value);
        if (v < field.min || v > field.max) {
            throw ConfigError(msgCat(
                field.name, " = ", field.format(value),
                " is out of range [", formatReal(field.min), ", ",
                formatReal(field.max), "]"));
        }
    }
    if (field.type == FieldDef::Type::choice) {
        const std::string &v = std::get<std::string>(value);
        if (std::find(field.choices.begin(), field.choices.end(),
                      v) == field.choices.end()) {
            throw ConfigError(msgCat(
                field.name, " = '", v, "' is not one of: ",
                joinChoices(field.choices)));
        }
    }
}

FieldValue
FieldRegistry::parse(const FieldDef &field,
                     const std::string &text) const
{
    FieldValue value;
    switch (field.type) {
      case FieldDef::Type::boolean: {
        if (text == "true" || text == "1" || text == "yes")
            value = true;
        else if (text == "false" || text == "0" || text == "no")
            value = false;
        else
            throw ConfigError(msgCat(field.name, " = '", text,
                                     "' is not a boolean (use "
                                     "true/false)"));
        break;
      }
      case FieldDef::Type::integer:
        value = parseInteger(field.name, text);
        break;
      case FieldDef::Type::real:
        value = parseReal(field.name, text);
        break;
      case FieldDef::Type::text:
      case FieldDef::Type::choice:
        value = text;
        break;
    }
    // Scenario names get canonicalized (row numbers, notations)
    // before the choice check so "--scenario 4" keeps working.
    if (field.name == "channel.scenario")
        value = std::string(
            scenarioInfo(scenarioFromName(std::get<std::string>(
                             value)))
                .notation);
    check(field, value);
    return value;
}

FieldValue
FieldRegistry::fromJson(const FieldDef &field, const Json &value,
                        const std::string &source) const
{
    switch (field.type) {
      case FieldDef::Type::boolean:
        if (!value.isBool())
            throw ConfigError(msgCat(source, ": ", field.name,
                                     " must be a boolean"));
        return parse(field, value.asBool() ? "true" : "false");
      case FieldDef::Type::integer: {
        if (!value.isInt())
            throw ConfigError(msgCat(source, ": ", field.name,
                                     " must be an integer"));
        FieldValue v = value.asInt();
        check(field, v);
        return v;
      }
      case FieldDef::Type::real: {
        if (!value.isNumber())
            throw ConfigError(msgCat(source, ": ", field.name,
                                     " must be a number"));
        FieldValue v = value.asDouble();
        check(field, v);
        return v;
      }
      case FieldDef::Type::text:
      case FieldDef::Type::choice:
        if (!value.isString())
            throw ConfigError(msgCat(source, ": ", field.name,
                                     " must be a string"));
        return parse(field, value.asString());
    }
    throw ConfigError(msgCat(source, ": ", field.name,
                             " has an unhandled type"));
}

Json
FieldRegistry::toJson(const FieldDef &field,
                      const ExperimentSpec &spec) const
{
    const FieldValue value = field.get(spec);
    switch (field.type) {
      case FieldDef::Type::boolean:
        return Json(std::get<bool>(value));
      case FieldDef::Type::integer:
        return Json(std::get<std::int64_t>(value));
      case FieldDef::Type::real:
        return Json(std::get<double>(value));
      case FieldDef::Type::text:
      case FieldDef::Type::choice:
        return Json(std::get<std::string>(value));
    }
    return Json();
}

std::string
FieldRegistry::unknownKeyMessage(const std::string &key,
                                 const std::string &source) const
{
    std::string msg =
        msgCat(source, ": unknown config key '", key, "'");
    const FieldDef *best = nullptr;
    std::size_t best_dist = 3;  // suggest only plausible typos
    for (const FieldDef &f : fields_) {
        auto consider = [&](const std::string &candidate) {
            const std::size_t d = editDistance(key, candidate);
            if (d < best_dist) {
                best_dist = d;
                best = &f;
            }
        };
        consider(f.name);
        // Compare against the leaf too ("flavour" vs "flavor").
        const auto dot = f.name.rfind('.');
        if (dot != std::string::npos)
            consider(f.name.substr(dot + 1));
        for (const std::string &alias : f.aliases)
            consider(alias);
    }
    if (best)
        msg += msgCat(" (did you mean '", best->name, "'?)");
    msg += "; run `cohersim info --fields` for every accepted key";
    return msg;
}

namespace
{

using Type = FieldDef::Type;

/**
 * The spec member at @p path, as an accessor that reads a const spec
 * and writes a mutable one, so the table below names each member once.
 */
#define ACCESS(path) [](auto &s) -> auto & { return s.path; }

/** The C++ type of the spec member accessor @p At reaches. */
template <typename At>
using MemberOf = std::remove_cvref_t<decltype(std::declval<At>()(
    std::declval<ExperimentSpec &>()))>;

/**
 * A bool, text, integer or real field over the member @p at reaches:
 * the member's C++ type picks the field type, and [lo, hi] bounds a
 * number. `add` fills in the name, doc and aliases.
 */
template <typename At>
FieldDef
scalar(At at, double lo = 0.0, double hi = 0.0)
{
    using T = MemberOf<At>;
    constexpr bool flag = std::is_same_v<T, bool>;
    constexpr bool text = std::is_same_v<T, std::string>;
    constexpr bool real = std::is_floating_point_v<T>;
    // The FieldValue alternative the member travels as.
    using V = std::conditional_t<flag || text, T,
                                 std::conditional_t<real, double,
                                                    std::int64_t>>;
    FieldDef f;
    f.type = flag   ? Type::boolean
             : text ? Type::text
             : real ? Type::real
                    : Type::integer;
    f.min = lo;
    f.max = hi;
    f.get = [at](const ExperimentSpec &s) -> FieldValue {
        return FieldValue(std::in_place_type<V>, at(s));
    };
    f.set = [at](ExperimentSpec &s, const FieldValue &v) {
        at(s) = static_cast<T>(std::get<V>(v));
    };
    return f;
}

/**
 * The names of enum E by value, read off its name function, which
 * returns "?" past the last enumerator.
 */
template <typename E>
std::vector<std::string>
namesOf(const char *(*name)(E))
{
    std::vector<std::string> names;
    while (true) {
        const char *n = name(static_cast<E>(names.size()));
        if (std::strcmp(n, "?") == 0)
            return names;
        names.push_back(n);
    }
}

/**
 * A choice field over the enum member @p at reaches, whose value i is
 * spelt names[i]: the accepted choices, the getter and the setter all
 * come from that one table.
 */
template <typename At>
FieldDef
choice(At at, std::vector<std::string> names)
{
    using E = MemberOf<At>;
    FieldDef f;
    f.type = Type::choice;
    f.choices = names;
    f.get = [at, names](const ExperimentSpec &s) -> FieldValue {
        return names[static_cast<std::size_t>(at(s))];
    };
    f.set = [at, names](ExperimentSpec &s, const FieldValue &v) {
        // check() has accepted the name already.
        const auto it = std::find(names.begin(), names.end(),
                                  std::get<std::string>(v));
        at(s) = static_cast<E>(it - names.begin());
    };
    return f;
}

} // namespace

FieldRegistry::FieldRegistry()
{
    auto add = [this](const char *name, const char *doc, FieldDef f,
                      std::vector<std::string> aliases = {}) {
        f.name = name;
        f.doc = doc;
        f.aliases = std::move(aliases);
        fields_.push_back(std::move(f));
    };
    constexpr double big = 1e18;

    // --- system: topology and protocol --------------------------------
    add("system.sockets", "processor packages (the channel needs two)",
        scalar(ACCESS(channel.system.sockets), 2, 8));
    add("system.cores_per_socket", "cores per socket (>= 4 for the core plan)",
        scalar(ACCESS(channel.system.coresPerSocket), 4, 32));
    add("system.flavor", "coherence protocol flavor",
        choice(ACCESS(channel.system.flavor), {"mesi", "mesif", "moesi"}),
        {"flavor"});
    add("system.lookup", "how a miss locates other copies",
        choice(ACCESS(channel.system.lookup), namesOf(coherenceLookupName)),
        {"lookup"});
    add("system.seed", "seed for all simulator randomness",
        scalar(ACCESS(channel.system.seed), 0, big), {"seed"});

    // --- system: cache geometry ---------------------------------------
    add("system.l1_bytes", "private L1 data cache size",
        scalar(ACCESS(channel.system.l1.sizeBytes), 4096, 1 << 20));
    add("system.l1_assoc", "L1 associativity",
        scalar(ACCESS(channel.system.l1.assoc), 1, 64));
    add("system.l2_bytes", "private L2 cache size",
        scalar(ACCESS(channel.system.l2.sizeBytes), 4096, 1 << 24));
    add("system.l2_assoc", "L2 associativity",
        scalar(ACCESS(channel.system.l2.assoc), 1, 64));
    add("system.llc_bytes", "shared LLC size per socket",
        scalar(ACCESS(channel.system.llc.sizeBytes), 65536, 1ll << 32));
    add("system.llc_assoc", "LLC associativity",
        scalar(ACCESS(channel.system.llc.assoc), 1, 64));

    // --- system.timing: clock and hit/hop latencies --------------------
    add("system.timing.clock_ghz", "reference clock, GHz",
        scalar(ACCESS(channel.system.timing.clockGhz), 0.1, 10));
    add("system.timing.l1_hit", "L1 hit latency, cycles",
        scalar(ACCESS(channel.system.timing.l1Hit), 1, 100));
    add("system.timing.l2_hit", "L2 hit latency, cycles",
        scalar(ACCESS(channel.system.timing.l2Hit), 1, 200));
    add("system.timing.priv_miss_overhead",
        "L1+L2 lookup and request-issue cost, cycles",
        scalar(ACCESS(channel.system.timing.privMissOverhead), 0, 10000));
    add("system.timing.llc_service", "LLC tag+data access and reply, cycles",
        scalar(ACCESS(channel.system.timing.llcService), 1, 10000));
    add("system.timing.owner_fwd", "LLC -> owner cache -> reply hop, cycles",
        scalar(ACCESS(channel.system.timing.ownerFwd), 0, 10000));
    add("system.timing.qpi_round_trip", "cross-socket link round trip, cycles",
        scalar(ACCESS(channel.system.timing.qpiRoundTrip), 0, 10000));
    add("system.timing.remote_owner_fwd",
        "remote LLC -> remote owner hop, cycles",
        scalar(ACCESS(channel.system.timing.remoteOwnerFwd), 0, 10000));
    add("system.timing.dram_service",
        "memory controller + DRAM service, cycles",
        scalar(ACCESS(channel.system.timing.dramService), 1, 100000));
    add("system.timing.flush_base",
        "clflush issue + global invalidate, cycles",
        scalar(ACCESS(channel.system.timing.flushBase), 1, 10000));
    add("system.timing.flush_dirty_extra",
        "extra flush cost when dirty data writes back, cycles",
        scalar(ACCESS(channel.system.timing.flushDirtyExtra), 0, 10000));
    add("system.timing.upgrade_lat", "S->M invalidation round, cycles",
        scalar(ACCESS(channel.system.timing.upgradeLat), 0, 10000));
    add("system.timing.invalidate_lat", "RFO invalidation cost, cycles",
        scalar(ACCESS(channel.system.timing.invalidateLat), 0, 10000));
    add("system.timing.cow_fault_lat",
        "OS copy-on-write fault handling, cycles",
        scalar(ACCESS(channel.system.timing.cowFaultLat), 0, 1000000));

    // --- system.timing: jitter and contention --------------------------
    add("system.timing.jitter_sd", "gaussian sd around each path latency",
        scalar(ACCESS(channel.system.timing.jitterSd), 0, 1000));
    add("system.timing.long_tail_prob",
        "chance of a TLB-walk/IRQ long tail per timed op",
        scalar(ACCESS(channel.system.timing.longTailProb), 0, 1));
    add("system.timing.long_tail_min", "long-tail extra delay lower bound",
        scalar(ACCESS(channel.system.timing.longTailMin), 0, 100000));
    add("system.timing.long_tail_max", "long-tail extra delay upper bound",
        scalar(ACCESS(channel.system.timing.longTailMax), 0, 100000));
    add("system.timing.llc_port_busy", "LLC port occupancy per access, cycles",
        scalar(ACCESS(channel.system.timing.llcPortBusy), 0, 10000));
    add("system.timing.qpi_busy", "QPI link occupancy per crossing, cycles",
        scalar(ACCESS(channel.system.timing.qpiBusy), 0, 10000));
    add("system.timing.dram_busy", "DRAM channel occupancy per access, cycles",
        scalar(ACCESS(channel.system.timing.dramBusy), 0, 10000));
    add("system.timing.snoop_overhead",
        "extra private-miss cycles under snoop lookup",
        scalar(ACCESS(channel.system.timing.snoopOverhead), 0, 10000));
    add("system.timing.contention_mean",
        "mean utilization-scaled interference delay",
        scalar(ACCESS(channel.system.timing.contentionMean), 0, 10000));
    add("system.timing.contention_sd",
        "sd of the utilization-scaled interference delay",
        scalar(ACCESS(channel.system.timing.contentionSd), 0, 10000));
    add("system.timing.excl_path_contention",
        "contention multiplier on owner-forward paths",
        scalar(ACCESS(channel.system.timing.exclPathContention), 0, 100));
    add("system.timing.uncore_coupling",
        "fraction of DRAM pressure felt by every miss",
        scalar(ACCESS(channel.system.timing.uncoreCoupling), 0, 1));
    add("system.timing.contention_tau",
        "time constant of the utilization estimate, cycles",
        scalar(ACCESS(channel.system.timing.contentionTau), 1, 1e9));
    add("system.timing.numa_interleave",
        "home-interleave physical lines across sockets",
        scalar(ACCESS(channel.system.timing.numaInterleave)));
    add("system.timing.numa_remote_extra",
        "extra latency for remote-homed DRAM access, cycles",
        scalar(ACCESS(channel.system.timing.numaRemoteExtra), 0, 10000));
    add("system.timing.llc_notified_of_upgrade",
        "mitigation 3: LLC serves E-state reads directly",
        scalar(ACCESS(channel.system.timing.llcNotifiedOfUpgrade)));

    // --- mem: pluggable hierarchy and randomized defenses ---------------
    add("mem.replacement", "cache replacement policy, all levels",
        choice(ACCESS(channel.system.replacement), namesOf(replPolicyName)),
        {"replacement"});
    add("mem.inclusivity",
        "LLC inclusion policy (inclusive / NINE / victim-cache exclusive)",
        choice(ACCESS(channel.system.inclusivity), namesOf(inclusivityName)),
        {"inclusivity"});
    add("mem.llc_index",
        "LLC set index function (linear / slice hash / randomized defenses)",
        choice(ACCESS(channel.system.llcIndex), namesOf(indexFnName)),
        {"llc_index", "index"});
    add("mem.remap_period",
        "LLC-side operations between index rekeys (remap mode)",
        scalar(ACCESS(channel.system.remapPeriod), 100, big),
        {"remap_period"});

    // --- channel: scenario and transmission setup ----------------------
    add("channel.vector",
        "leakage vector carrying the bits (channel/vector.hh): "
        "coherence-state timing, dirty-state writeback timing, "
        "replacement-metadata (LRU) eviction, or KSM copy-on-write fault "
        "timing",
        choice(ACCESS(channel.vector), namesOf(vectorName)), {"vector"});
    std::vector<std::string> notations;
    for (const ScenarioInfo &sc : allScenarios())
        notations.push_back(sc.notation);
    add("channel.scenario", "Table I attack scenario (notation or row 1-6)",
        choice(ACCESS(channel.scenario), notations), {"scenario"});
    add("channel.sharing", "how trojan and spy obtain the shared page",
        choice(ACCESS(channel.sharing), namesOf(sharingModeName)),
        {"sharing"});
    add("channel.noise_threads", "co-located kernel-build noise threads",
        scalar(ACCESS(channel.noiseThreads), 0, 64), {"noise"});
    add("channel.defense", "deployed defence (paper Section VIII-E)",
        choice(ACCESS(channel.defense), namesOf(defenseName)), {"defense"});
    add("channel.rate_kbps",
        "target raw rate; > 0 derives ts/helper_gap/poll_interval",
        scalar(ACCESS(rateKbps), 0, 100000), {"rate"});
    add("channel.timeout", "safety stop, cycles",
        scalar(ACCESS(channel.timeout), 1, big), {"timeout"});
    add("channel.timeout_margin",
        "> 0: derive the timeout from the payload with this margin",
        scalar(ACCESS(timeoutMargin), 0, 1000));

    // --- channel: protocol counters and intervals -----------------------
    add("channel.c1", "CSc sample periods encoding a '1' bit",
        scalar(ACCESS(channel.params.c1), 1, 1000));
    add("channel.c0", "CSc sample periods encoding a '0' bit",
        scalar(ACCESS(channel.params.c0), 1, 1000));
    add("channel.cb", "CSb sample periods delimiting bits",
        scalar(ACCESS(channel.params.cb), 1, 1000));
    add("channel.ts", "spy wait between flush and timed reload, cycles",
        scalar(ACCESS(channel.params.ts), 1, 1000000));
    add("channel.end_n", "out-of-band samples ending reception",
        scalar(ACCESS(channel.params.endN), 1, 1000));
    add("channel.helper_gap", "trojan loader re-load gap, cycles",
        scalar(ACCESS(channel.params.helperGap), 1, 100000));
    add("channel.poll_interval", "trojan helper polling granularity",
        scalar(ACCESS(channel.params.pollInterval), 1, 100000));
    add("channel.band_widen", "cycles beyond calibrated band edges accepted",
        scalar(ACCESS(channel.params.bandWiden), 0, 1000));
    add("channel.gap_claim", "fraction of the inter-band gap each band claims",
        scalar(ACCESS(channel.params.gapClaim), 0, 1));

    // --- PHY channel stack (src/phy) -------------------------------------
    add("phy.profile",
        "chain the pair runs: the paper's parity+NACK scheme, the framed "
        "whiten/interleave/Hamming(8,4) stack with hard or soft-decision "
        "decoding, or raw modulation (any vector)",
        choice(ACCESS(channel.phy.profile), namesOf(phyProfileName)),
        {"profile"});
    add("phy.interleaver_depth",
        "block interleaver depth, wire bits (1: off); a depth-long burst hits "
        "each codeword once",
        scalar(ACCESS(channel.phy.interleaverDepth), 1, 64));
    add("phy.preamble_len",
        "correlation preamble length, wire bits (Barker-13 derived)",
        scalar(ACCESS(channel.phy.preambleLen), 8, 64));
    add("phy.whiten", "PN9-whiten frame bodies to break payload runs",
        scalar(ACCESS(channel.phy.whiten)));
    add("phy.frame_nibbles",
        "payload nibbles per frame body (x8 wire bits after FEC)",
        scalar(ACCESS(channel.phy.frameNibbles), 4, 256));

    // --- noise workload -------------------------------------------------
    add("noise.buffer_bytes", "per-agent working buffer size",
        scalar(ACCESS(channel.noise.bufferBytes), 4096, big));
    add("noise.stream_burst", "lines touched per streaming burst",
        scalar(ACCESS(channel.noise.streamBurst), 1, 100000));
    add("noise.random_burst", "lines touched per random burst",
        scalar(ACCESS(channel.noise.randomBurst), 1, 100000));
    add("noise.store_fraction",
        "fraction of random-burst accesses that are stores",
        scalar(ACCESS(channel.noise.storeFraction), 0, 1));
    add("noise.access_gap", "idle gap between accesses in a burst, cycles",
        scalar(ACCESS(channel.noise.accessGap), 0, 100000));
    add("noise.inter_burst_gap", "blocking pause between bursts, cycles",
        scalar(ACCESS(channel.noise.interBurstGap), 0, big));
    add("noise.active_phase", "compile-phase duration, cycles",
        scalar(ACCESS(channel.noise.activePhase), 1, big));
    add("noise.idle_phase", "I/O-phase duration, cycles",
        scalar(ACCESS(channel.noise.idlePhase), 1, big));

    // --- payload ---------------------------------------------------------
    add("payload.message", "text payload (used when payload.bits is 0)",
        scalar(ACCESS(payload.message)), {"message"});
    add("payload.bits", "> 0: seeded random payload of this many bits",
        scalar(ACCESS(payload.bits), 0, 10000000), {"bits"});

    // --- sweep grid ------------------------------------------------------
    add("sweep.from_kbps", "rate axis start (with to/step), Kbps",
        scalar(ACCESS(sweep.fromKbps), 0, 100000), {"from"});
    add("sweep.to_kbps", "rate axis end (inclusive), Kbps",
        scalar(ACCESS(sweep.toKbps), 0, 100000), {"to"});
    add("sweep.step_kbps", "rate axis step, Kbps",
        scalar(ACCESS(sweep.stepKbps), 0, 100000), {"step"});
    add("sweep.rates",
        "explicit rate list (CSV, Kbps); overrides from/to/step",
        scalar(ACCESS(sweep.rates)));
    add("sweep.scenarios", "scenario axis: CSV of notations/rows, or \"all\"",
        scalar(ACCESS(sweep.scenarios)));
    add("sweep.noise_levels", "noise axis: CSV of thread counts",
        scalar(ACCESS(sweep.noiseLevels)));

    // --- multi-tenant fleet ----------------------------------------------
    add("fleet.pairs",
        "concurrent trojan/spy pairs on one machine (> 1 runs the fleet path)",
        scalar(ACCESS(fleet.pairs), 1, 64), {"pairs"});
    add("fleet.noise_agents", "fleet-wide co-tenant noise agents",
        scalar(ACCESS(fleet.noiseAgents), 0, 64));
    add("fleet.stagger_cycles",
        "start-offset spacing between consecutive pairs, cycles",
        scalar(ACCESS(fleet.staggerCycles), 0, big));
    add("fleet.scenario_mix",
        "CSV of Table I notations/rows cycled over the pairs (empty: every "
        "pair runs channel.scenario)",
        scalar(ACCESS(fleet.scenarioMix)));

    // --- run-health observability (cohersim report) ----------------------
    add("obs.window_cycles", "telemetry aggregation window, virtual cycles",
        scalar(ACCESS(obs.windowCycles), 1000, big), {"window"});
    add("obs.hist_sub_bits",
        "latency histogram sub-bucket bits (precision per power of two)",
        scalar(ACCESS(obs.histSubBits), 0, 16));
    add("obs.band_core",
        "core whose loads feed the latency bands (-1: all cores)",
        scalar(ACCESS(obs.bandCore), -1, 4096));
    add("obs.drift_warn_fraction",
        "flag a band when more than this fraction of its samples fall outside "
        "the calibrated range",
        scalar(ACCESS(obs.driftWarnFraction), 0, 1));
    add("obs.pair",
        "fleet pair whose channel events feed the health report (-1: all "
        "pairs)",
        scalar(ACCESS(obs.pair), -1, 64));
}

#undef ACCESS

} // namespace csim
