#include "config/field_registry.hh"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "common/logging.hh"
#include "config/presets.hh"
#include "phy/phy_config.hh"
#include "runner/json_sink.hh"

namespace csim
{

namespace
{

/** Plain Levenshtein over key names, for "did you mean" hints. */
std::size_t
keyDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t sub =
                diag + (a[i - 1] == b[j - 1] ? 0 : 1);
            diag = row[j];
            row[j] = std::min({row[j - 1] + 1, row[j] + 1, sub});
        }
    }
    return row[b.size()];
}

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
      case FieldDef::Type::integer: {
        char *end = nullptr;
        const long long v = std::strtoll(text.c_str(), &end, 10);
        if (end == text.c_str() || *end != '\0')
            throw ConfigError(msgCat(field.name, " = '", text,
                                     "' is not an integer"));
        value = static_cast<std::int64_t>(v);
        break;
      }
      case FieldDef::Type::real: {
        char *end = nullptr;
        const double v = std::strtod(text.c_str(), &end);
        if (end == text.c_str() || *end != '\0')
            throw ConfigError(msgCat(field.name, " = '", text,
                                     "' is not a number"));
        value = v;
        break;
      }
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
            const std::size_t d = keyDistance(key, candidate);
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
 * Builders keep the registry table below declarative: one line per
 * field with the name, range, doc and an lvalue expression locating
 * the member inside the spec.
 */
#define ACCESS_INT(expr)                                               \
    [](const ExperimentSpec &s) -> FieldValue {                        \
        return static_cast<std::int64_t>(expr);                        \
    },                                                                 \
    [](ExperimentSpec &s, const FieldValue &v) {                       \
        expr = static_cast<std::remove_reference_t<decltype(expr)>>(   \
            std::get<std::int64_t>(v));                                \
    }

#define ACCESS_REAL(expr)                                              \
    [](const ExperimentSpec &s) -> FieldValue {                        \
        return static_cast<double>(expr);                              \
    },                                                                 \
    [](ExperimentSpec &s, const FieldValue &v) {                       \
        expr = std::get<double>(v);                                    \
    }

#define ACCESS_BOOL(expr)                                              \
    [](const ExperimentSpec &s) -> FieldValue { return bool(expr); },  \
    [](ExperimentSpec &s, const FieldValue &v) {                       \
        expr = std::get<bool>(v);                                      \
    }

#define ACCESS_TEXT(expr)                                              \
    [](const ExperimentSpec &s) -> FieldValue { return expr; },        \
    [](ExperimentSpec &s, const FieldValue &v) {                       \
        expr = std::get<std::string>(v);                               \
    }

FieldDef
makeNumeric(const char *name, Type type, double lo, double hi,
            const char *doc,
            std::function<FieldValue(const ExperimentSpec &)> get,
            std::function<void(ExperimentSpec &, const FieldValue &)>
                set,
            std::vector<std::string> aliases = {})
{
    FieldDef f;
    f.name = name;
    f.type = type;
    f.doc = doc;
    f.min = lo;
    f.max = hi;
    f.aliases = std::move(aliases);
    f.get = std::move(get);
    f.set = std::move(set);
    return f;
}

FieldDef
makeFlag(const char *name, const char *doc,
         std::function<FieldValue(const ExperimentSpec &)> get,
         std::function<void(ExperimentSpec &, const FieldValue &)>
             set,
         std::vector<std::string> aliases = {})
{
    FieldDef f;
    f.name = name;
    f.type = Type::boolean;
    f.doc = doc;
    f.aliases = std::move(aliases);
    f.get = std::move(get);
    f.set = std::move(set);
    return f;
}

FieldDef
makeText(const char *name, const char *doc,
         std::function<FieldValue(const ExperimentSpec &)> get,
         std::function<void(ExperimentSpec &, const FieldValue &)>
             set,
         std::vector<std::string> aliases = {})
{
    FieldDef f;
    f.name = name;
    f.type = Type::text;
    f.doc = doc;
    f.aliases = std::move(aliases);
    f.get = std::move(get);
    f.set = std::move(set);
    return f;
}

FieldDef
makeChoice(const char *name, std::vector<std::string> choices,
           const char *doc,
           std::function<FieldValue(const ExperimentSpec &)> get,
           std::function<void(ExperimentSpec &, const FieldValue &)>
               set,
           std::vector<std::string> aliases = {})
{
    FieldDef f;
    f.name = name;
    f.type = Type::choice;
    f.doc = doc;
    f.choices = std::move(choices);
    f.aliases = std::move(aliases);
    f.get = std::move(get);
    f.set = std::move(set);
    return f;
}

} // namespace

FieldRegistry::FieldRegistry()
{
    auto add = [this](FieldDef f) {
        fields_.push_back(std::move(f));
    };
    constexpr double big = 1e18;

    // --- system: topology and protocol --------------------------------
    add(makeNumeric("system.sockets", Type::integer, 2, 8,
                    "processor packages (the channel needs two)",
                    ACCESS_INT(s.channel.system.sockets)));
    add(makeNumeric("system.cores_per_socket", Type::integer, 4, 32,
                    "cores per socket (>= 4 for the core plan)",
                    ACCESS_INT(s.channel.system.coresPerSocket)));
    add(makeChoice("system.flavor", {"mesi", "mesif", "moesi"},
                   "coherence protocol flavor",
                   [](const ExperimentSpec &s) -> FieldValue {
                       switch (s.channel.system.flavor) {
                         case CoherenceFlavor::mesi:
                           return std::string("mesi");
                         case CoherenceFlavor::mesif:
                           return std::string("mesif");
                         case CoherenceFlavor::moesi:
                           return std::string("moesi");
                       }
                       return std::string("?");
                   },
                   [](ExperimentSpec &s, const FieldValue &v) {
                       const std::string &n =
                           std::get<std::string>(v);
                       s.channel.system.flavor =
                           n == "mesif" ? CoherenceFlavor::mesif
                           : n == "moesi"
                               ? CoherenceFlavor::moesi
                               : CoherenceFlavor::mesi;
                   },
                   {"flavor"}));
    add(makeChoice("system.lookup", {"directory", "snoop"},
                   "how a miss locates other copies",
                   [](const ExperimentSpec &s) -> FieldValue {
                       return std::string(coherenceLookupName(
                           s.channel.system.lookup));
                   },
                   [](ExperimentSpec &s, const FieldValue &v) {
                       s.channel.system.lookup =
                           std::get<std::string>(v) == "snoop"
                               ? CoherenceLookup::snoop
                               : CoherenceLookup::directory;
                   },
                   {"lookup"}));
    add(makeFlag("system.llc_inclusive",
                 "legacy switch: inclusive LLC (true) vs NINE "
                 "(false); superseded by mem.inclusivity",
                 [](const ExperimentSpec &s) -> FieldValue {
                     return s.channel.system.llcInclusive();
                 },
                 [](ExperimentSpec &s, const FieldValue &v) {
                     s.channel.system.inclusivity =
                         std::get<bool>(v) ? Inclusivity::inclusive
                                           : Inclusivity::nine;
                 }));
    add(makeNumeric("system.seed", Type::integer, 0, big,
                    "seed for all simulator randomness",
                    ACCESS_INT(s.channel.system.seed), {"seed"}));

    // --- system: cache geometry ---------------------------------------
    add(makeNumeric("system.l1_bytes", Type::integer, 4096, 1 << 20,
                    "private L1 data cache size",
                    ACCESS_INT(s.channel.system.l1.sizeBytes)));
    add(makeNumeric("system.l1_assoc", Type::integer, 1, 64,
                    "L1 associativity",
                    ACCESS_INT(s.channel.system.l1.assoc)));
    add(makeNumeric("system.l2_bytes", Type::integer, 4096, 1 << 24,
                    "private L2 cache size",
                    ACCESS_INT(s.channel.system.l2.sizeBytes)));
    add(makeNumeric("system.l2_assoc", Type::integer, 1, 64,
                    "L2 associativity",
                    ACCESS_INT(s.channel.system.l2.assoc)));
    add(makeNumeric("system.llc_bytes", Type::integer, 65536,
                    1ll << 32, "shared LLC size per socket",
                    ACCESS_INT(s.channel.system.llc.sizeBytes)));
    add(makeNumeric("system.llc_assoc", Type::integer, 1, 64,
                    "LLC associativity",
                    ACCESS_INT(s.channel.system.llc.assoc)));

    // --- system.timing: clock and hit/hop latencies --------------------
    add(makeNumeric("system.timing.clock_ghz", Type::real, 0.1, 10,
                    "reference clock, GHz",
                    ACCESS_REAL(s.channel.system.timing.clockGhz)));
    add(makeNumeric("system.timing.l1_hit", Type::integer, 1, 100,
                    "L1 hit latency, cycles",
                    ACCESS_INT(s.channel.system.timing.l1Hit)));
    add(makeNumeric("system.timing.l2_hit", Type::integer, 1, 200,
                    "L2 hit latency, cycles",
                    ACCESS_INT(s.channel.system.timing.l2Hit)));
    add(makeNumeric(
        "system.timing.priv_miss_overhead", Type::integer, 0, 10000,
        "L1+L2 lookup and request-issue cost, cycles",
        ACCESS_INT(s.channel.system.timing.privMissOverhead)));
    add(makeNumeric("system.timing.llc_service", Type::integer, 1,
                    10000, "LLC tag+data access and reply, cycles",
                    ACCESS_INT(s.channel.system.timing.llcService)));
    add(makeNumeric("system.timing.owner_fwd", Type::integer, 0,
                    10000, "LLC -> owner cache -> reply hop, cycles",
                    ACCESS_INT(s.channel.system.timing.ownerFwd)));
    add(makeNumeric(
        "system.timing.qpi_round_trip", Type::integer, 0, 10000,
        "cross-socket link round trip, cycles",
        ACCESS_INT(s.channel.system.timing.qpiRoundTrip)));
    add(makeNumeric(
        "system.timing.remote_owner_fwd", Type::integer, 0, 10000,
        "remote LLC -> remote owner hop, cycles",
        ACCESS_INT(s.channel.system.timing.remoteOwnerFwd)));
    add(makeNumeric(
        "system.timing.dram_service", Type::integer, 1, 100000,
        "memory controller + DRAM service, cycles",
        ACCESS_INT(s.channel.system.timing.dramService)));
    add(makeNumeric("system.timing.flush_base", Type::integer, 1,
                    10000, "clflush issue + global invalidate, cycles",
                    ACCESS_INT(s.channel.system.timing.flushBase)));
    add(makeNumeric(
        "system.timing.flush_dirty_extra", Type::integer, 0, 10000,
        "extra flush cost when dirty data writes back, cycles",
        ACCESS_INT(s.channel.system.timing.flushDirtyExtra)));
    add(makeNumeric("system.timing.upgrade_lat", Type::integer, 0,
                    10000, "S->M invalidation round, cycles",
                    ACCESS_INT(s.channel.system.timing.upgradeLat)));
    add(makeNumeric(
        "system.timing.invalidate_lat", Type::integer, 0, 10000,
        "RFO invalidation cost, cycles",
        ACCESS_INT(s.channel.system.timing.invalidateLat)));
    add(makeNumeric(
        "system.timing.cow_fault_lat", Type::integer, 0, 1000000,
        "OS copy-on-write fault handling, cycles",
        ACCESS_INT(s.channel.system.timing.cowFaultLat)));

    // --- system.timing: jitter and contention --------------------------
    add(makeNumeric("system.timing.jitter_sd", Type::real, 0, 1000,
                    "gaussian sd around each path latency",
                    ACCESS_REAL(s.channel.system.timing.jitterSd)));
    add(makeNumeric(
        "system.timing.long_tail_prob", Type::real, 0, 1,
        "chance of a TLB-walk/IRQ long tail per timed op",
        ACCESS_REAL(s.channel.system.timing.longTailProb)));
    add(makeNumeric("system.timing.long_tail_min", Type::integer, 0,
                    100000, "long-tail extra delay lower bound",
                    ACCESS_INT(s.channel.system.timing.longTailMin)));
    add(makeNumeric("system.timing.long_tail_max", Type::integer, 0,
                    100000, "long-tail extra delay upper bound",
                    ACCESS_INT(s.channel.system.timing.longTailMax)));
    add(makeNumeric("system.timing.llc_port_busy", Type::integer, 0,
                    10000, "LLC port occupancy per access, cycles",
                    ACCESS_INT(s.channel.system.timing.llcPortBusy)));
    add(makeNumeric("system.timing.qpi_busy", Type::integer, 0,
                    10000, "QPI link occupancy per crossing, cycles",
                    ACCESS_INT(s.channel.system.timing.qpiBusy)));
    add(makeNumeric("system.timing.dram_busy", Type::integer, 0,
                    10000, "DRAM channel occupancy per access, cycles",
                    ACCESS_INT(s.channel.system.timing.dramBusy)));
    add(makeNumeric(
        "system.timing.snoop_overhead", Type::integer, 0, 10000,
        "extra private-miss cycles under snoop lookup",
        ACCESS_INT(s.channel.system.timing.snoopOverhead)));
    add(makeNumeric(
        "system.timing.contention_mean", Type::real, 0, 10000,
        "mean utilization-scaled interference delay",
        ACCESS_REAL(s.channel.system.timing.contentionMean)));
    add(makeNumeric(
        "system.timing.contention_sd", Type::real, 0, 10000,
        "sd of the utilization-scaled interference delay",
        ACCESS_REAL(s.channel.system.timing.contentionSd)));
    add(makeNumeric(
        "system.timing.excl_path_contention", Type::real, 0, 100,
        "contention multiplier on owner-forward paths",
        ACCESS_REAL(s.channel.system.timing.exclPathContention)));
    add(makeNumeric(
        "system.timing.uncore_coupling", Type::real, 0, 1,
        "fraction of DRAM pressure felt by every miss",
        ACCESS_REAL(s.channel.system.timing.uncoreCoupling)));
    add(makeNumeric(
        "system.timing.contention_tau", Type::real, 1, 1e9,
        "time constant of the utilization estimate, cycles",
        ACCESS_REAL(s.channel.system.timing.contentionTau)));
    add(makeFlag(
        "system.timing.numa_interleave",
        "home-interleave physical lines across sockets",
        ACCESS_BOOL(s.channel.system.timing.numaInterleave)));
    add(makeNumeric(
        "system.timing.numa_remote_extra", Type::integer, 0, 10000,
        "extra latency for remote-homed DRAM access, cycles",
        ACCESS_INT(s.channel.system.timing.numaRemoteExtra)));
    add(makeFlag(
        "system.timing.llc_notified_of_upgrade",
        "mitigation 3: LLC serves E-state reads directly",
        ACCESS_BOOL(
            s.channel.system.timing.llcNotifiedOfUpgrade)));

    // --- mem: pluggable hierarchy and randomized defenses ---------------
    // Registered after system.* so mem.inclusivity wins over the
    // legacy system.llc_inclusive alias on config round-trips.
    add(makeChoice(
        "mem.replacement", {"lru", "plru", "random", "srrip"},
        "cache replacement policy, all levels",
        [](const ExperimentSpec &s) -> FieldValue {
            return std::string(
                replPolicyName(s.channel.system.replacement));
        },
        [](ExperimentSpec &s, const FieldValue &v) {
            const std::string &n = std::get<std::string>(v);
            s.channel.system.replacement =
                n == "plru"     ? ReplPolicy::plru
                : n == "random" ? ReplPolicy::random
                : n == "srrip"  ? ReplPolicy::srrip
                                : ReplPolicy::lru;
        },
        {"replacement"}));
    add(makeChoice(
        "mem.inclusivity", {"inclusive", "nine", "exclusive"},
        "LLC inclusion policy (inclusive / NINE / victim-cache "
        "exclusive)",
        [](const ExperimentSpec &s) -> FieldValue {
            return std::string(
                inclusivityName(s.channel.system.inclusivity));
        },
        [](ExperimentSpec &s, const FieldValue &v) {
            const std::string &n = std::get<std::string>(v);
            s.channel.system.inclusivity =
                n == "nine"        ? Inclusivity::nine
                : n == "exclusive" ? Inclusivity::exclusive
                                   : Inclusivity::inclusive;
        },
        {"inclusivity"}));
    add(makeChoice(
        "mem.llc_index", {"linear", "xor-fold", "remap", "mirage"},
        "LLC set index function (linear / slice hash / randomized "
        "defenses)",
        [](const ExperimentSpec &s) -> FieldValue {
            return std::string(
                indexFnName(s.channel.system.llcIndex));
        },
        [](ExperimentSpec &s, const FieldValue &v) {
            const std::string &n = std::get<std::string>(v);
            s.channel.system.llcIndex =
                n == "xor-fold" ? IndexFn::xorFold
                : n == "remap"  ? IndexFn::remap
                : n == "mirage" ? IndexFn::mirage
                                : IndexFn::linear;
        },
        {"llc_index", "index"}));
    add(makeNumeric(
        "mem.remap_period", Type::integer, 100, big,
        "LLC-side operations between index rekeys (remap mode)",
        ACCESS_INT(s.channel.system.remapPeriod),
        {"remap_period"}));

    // --- channel: scenario and transmission setup ----------------------
    add(makeChoice(
        "channel.vector",
        {"coherence", "dirty", "lru", "pagefault", "coherence-2bit"},
        "leakage vector carrying the bits (channel/vector.hh): "
        "coherence-state timing, dirty-state writeback timing, "
        "replacement-metadata (LRU) eviction, or KSM copy-on-write "
        "fault timing",
        [](const ExperimentSpec &s) -> FieldValue {
            return std::string(vectorName(s.channel.vector));
        },
        [](ExperimentSpec &s, const FieldValue &v) {
            s.channel.vector =
                vectorFromName(std::get<std::string>(v));
        },
        {"vector"}));
    {
        std::vector<std::string> notations;
        for (const ScenarioInfo &sc : allScenarios())
            notations.push_back(sc.notation);
        add(makeChoice(
            "channel.scenario", std::move(notations),
            "Table I attack scenario (notation or row 1-6)",
            [](const ExperimentSpec &s) -> FieldValue {
                return std::string(
                    scenarioInfo(s.channel.scenario).notation);
            },
            [](ExperimentSpec &s, const FieldValue &v) {
                s.channel.scenario =
                    scenarioFromName(std::get<std::string>(v));
            },
            {"scenario"}));
    }
    add(makeChoice("channel.sharing", {"explicit", "ksm"},
                   "how trojan and spy obtain the shared page",
                   [](const ExperimentSpec &s) -> FieldValue {
                       return std::string(
                           sharingModeName(s.channel.sharing));
                   },
                   [](ExperimentSpec &s, const FieldValue &v) {
                       s.channel.sharing =
                           std::get<std::string>(v) == "ksm"
                               ? SharingMode::ksm
                               : SharingMode::explicitShared;
                   },
                   {"sharing"}));
    add(makeNumeric("channel.noise_threads", Type::integer, 0, 64,
                    "co-located kernel-build noise threads",
                    ACCESS_INT(s.channel.noiseThreads), {"noise"}));
    add(makeChoice(
        "channel.defense",
        {"none", "targeted-noise", "ksm-guard", "llc-notify"},
        "deployed defence (paper Section VIII-E)",
        [](const ExperimentSpec &s) -> FieldValue {
            return std::string(defenseName(s.channel.defense));
        },
        [](ExperimentSpec &s, const FieldValue &v) {
            const std::string &n = std::get<std::string>(v);
            s.channel.defense = n == "targeted-noise"
                                    ? Defense::targetedNoise
                                : n == "ksm-guard"
                                    ? Defense::ksmGuard
                                : n == "llc-notify"
                                    ? Defense::llcNotify
                                    : Defense::none;
        },
        {"defense"}));
    add(makeNumeric(
        "channel.rate_kbps", Type::real, 0, 100000,
        "target raw rate; > 0 derives ts/helper_gap/poll_interval",
        ACCESS_REAL(s.rateKbps), {"rate"}));
    add(makeNumeric("channel.timeout", Type::integer, 1, big,
                    "safety stop, cycles",
                    ACCESS_INT(s.channel.timeout), {"timeout"}));
    add(makeNumeric(
        "channel.timeout_margin", Type::real, 0, 1000,
        "> 0: derive the timeout from the payload with this margin",
        ACCESS_REAL(s.timeoutMargin)));

    // --- channel: protocol counters and intervals -----------------------
    add(makeNumeric("channel.c1", Type::integer, 1, 1000,
                    "CSc sample periods encoding a '1' bit",
                    ACCESS_INT(s.channel.params.c1)));
    add(makeNumeric("channel.c0", Type::integer, 1, 1000,
                    "CSc sample periods encoding a '0' bit",
                    ACCESS_INT(s.channel.params.c0)));
    add(makeNumeric("channel.cb", Type::integer, 1, 1000,
                    "CSb sample periods delimiting bits",
                    ACCESS_INT(s.channel.params.cb)));
    add(makeNumeric("channel.ts", Type::integer, 1, 1000000,
                    "spy wait between flush and timed reload, cycles",
                    ACCESS_INT(s.channel.params.ts)));
    add(makeNumeric("channel.end_n", Type::integer, 1, 1000,
                    "out-of-band samples ending reception",
                    ACCESS_INT(s.channel.params.endN)));
    add(makeNumeric("channel.helper_gap", Type::integer, 1, 100000,
                    "trojan loader re-load gap, cycles",
                    ACCESS_INT(s.channel.params.helperGap)));
    add(makeNumeric("channel.poll_interval", Type::integer, 1,
                    100000, "trojan helper polling granularity",
                    ACCESS_INT(s.channel.params.pollInterval)));
    add(makeNumeric("channel.band_widen", Type::real, 0, 1000,
                    "cycles beyond calibrated band edges accepted",
                    ACCESS_REAL(s.channel.params.bandWiden)));
    add(makeNumeric("channel.gap_claim", Type::real, 0, 1,
                    "fraction of the inter-band gap each band claims",
                    ACCESS_REAL(s.channel.params.gapClaim)));

    // --- PHY channel stack (src/phy) -------------------------------------
    add(makeChoice(
        "phy.profile",
        {"legacy-parity", "hamming-hard", "hamming-soft"},
        "channel coding stack: the paper's parity+NACK scheme, or "
        "the framed whiten/interleave/Hamming(8,4) stack with hard "
        "or soft-decision decoding",
        [](const ExperimentSpec &s) -> FieldValue {
            return std::string(
                phyProfileName(s.channel.phy.profile));
        },
        [](ExperimentSpec &s, const FieldValue &v) {
            PhyProfile p = PhyProfile::legacyParity;
            phyProfileFromName(std::get<std::string>(v).c_str(), p);
            s.channel.phy.profile = p;
        },
        {"profile"}));
    add(makeNumeric("phy.interleaver_depth", Type::integer, 1, 64,
                    "block interleaver depth, wire bits (1: off); "
                    "a depth-long burst hits each codeword once",
                    ACCESS_INT(s.channel.phy.interleaverDepth)));
    add(makeNumeric("phy.preamble_len", Type::integer, 8, 64,
                    "correlation preamble length, wire bits "
                    "(Barker-13 derived)",
                    ACCESS_INT(s.channel.phy.preambleLen)));
    add(makeFlag("phy.whiten",
                 "PN9-whiten frame bodies to break payload runs",
                 ACCESS_BOOL(s.channel.phy.whiten)));
    add(makeFlag("phy.adaptive",
                 "pick profile and raw rate from calibrated band "
                 "separation (overrides phy.profile when it picks)",
                 ACCESS_BOOL(s.channel.phy.adaptive), {"adaptive"}));
    add(makeNumeric("phy.frame_nibbles", Type::integer, 4, 256,
                    "payload nibbles per frame body (x8 wire bits "
                    "after FEC)",
                    ACCESS_INT(s.channel.phy.frameNibbles)));

    // --- noise workload -------------------------------------------------
    add(makeNumeric("noise.buffer_bytes", Type::integer, 4096, big,
                    "per-agent working buffer size",
                    ACCESS_INT(s.channel.noise.bufferBytes)));
    add(makeNumeric("noise.stream_burst", Type::integer, 1, 100000,
                    "lines touched per streaming burst",
                    ACCESS_INT(s.channel.noise.streamBurst)));
    add(makeNumeric("noise.random_burst", Type::integer, 1, 100000,
                    "lines touched per random burst",
                    ACCESS_INT(s.channel.noise.randomBurst)));
    add(makeNumeric(
        "noise.store_fraction", Type::real, 0, 1,
        "fraction of random-burst accesses that are stores",
        ACCESS_REAL(s.channel.noise.storeFraction)));
    add(makeNumeric("noise.access_gap", Type::integer, 0, 100000,
                    "idle gap between accesses in a burst, cycles",
                    ACCESS_INT(s.channel.noise.accessGap)));
    add(makeNumeric("noise.inter_burst_gap", Type::integer, 0, big,
                    "blocking pause between bursts, cycles",
                    ACCESS_INT(s.channel.noise.interBurstGap)));
    add(makeNumeric("noise.active_phase", Type::integer, 1, big,
                    "compile-phase duration, cycles",
                    ACCESS_INT(s.channel.noise.activePhase)));
    add(makeNumeric("noise.idle_phase", Type::integer, 1, big,
                    "I/O-phase duration, cycles",
                    ACCESS_INT(s.channel.noise.idlePhase)));

    // --- payload ---------------------------------------------------------
    add(makeText("payload.message",
                 "text payload (used when payload.bits is 0)",
                 ACCESS_TEXT(s.payload.message), {"message"}));
    add(makeNumeric("payload.bits", Type::integer, 0, 10000000,
                    "> 0: seeded random payload of this many bits",
                    ACCESS_INT(s.payload.bits), {"bits"}));

    // --- sweep grid ------------------------------------------------------
    add(makeNumeric("sweep.from_kbps", Type::real, 0, 100000,
                    "rate axis start (with to/step), Kbps",
                    ACCESS_REAL(s.sweep.fromKbps), {"from"}));
    add(makeNumeric("sweep.to_kbps", Type::real, 0, 100000,
                    "rate axis end (inclusive), Kbps",
                    ACCESS_REAL(s.sweep.toKbps), {"to"}));
    add(makeNumeric("sweep.step_kbps", Type::real, 0, 100000,
                    "rate axis step, Kbps",
                    ACCESS_REAL(s.sweep.stepKbps), {"step"}));
    add(makeText("sweep.rates",
                 "explicit rate list (CSV, Kbps); overrides "
                 "from/to/step",
                 ACCESS_TEXT(s.sweep.rates)));
    add(makeText("sweep.scenarios",
                 "scenario axis: CSV of notations/rows, or \"all\"",
                 ACCESS_TEXT(s.sweep.scenarios)));
    add(makeText("sweep.noise_levels",
                 "noise axis: CSV of thread counts",
                 ACCESS_TEXT(s.sweep.noiseLevels)));

    // --- multi-tenant fleet ----------------------------------------------
    add(makeNumeric("fleet.pairs", Type::integer, 1, 64,
                    "concurrent trojan/spy pairs on one machine "
                    "(> 1 runs the fleet path)",
                    ACCESS_INT(s.fleet.pairs), {"pairs"}));
    add(makeNumeric("fleet.noise_agents", Type::integer, 0, 64,
                    "fleet-wide co-tenant noise agents",
                    ACCESS_INT(s.fleet.noiseAgents)));
    add(makeNumeric("fleet.stagger_cycles", Type::integer, 0, big,
                    "start-offset spacing between consecutive "
                    "pairs, cycles",
                    ACCESS_INT(s.fleet.staggerCycles)));
    add(makeText("fleet.scenario_mix",
                 "CSV of Table I notations/rows cycled over the "
                 "pairs (empty: every pair runs channel.scenario)",
                 ACCESS_TEXT(s.fleet.scenarioMix)));

    // --- run-health observability (cohersim report) ----------------------
    add(makeNumeric("obs.window_cycles", Type::integer, 1000, big,
                    "telemetry aggregation window, virtual cycles",
                    ACCESS_INT(s.obs.windowCycles), {"window"}));
    add(makeNumeric("obs.hist_sub_bits", Type::integer, 0, 16,
                    "latency histogram sub-bucket bits (precision "
                    "per power of two)",
                    ACCESS_INT(s.obs.histSubBits)));
    add(makeNumeric("obs.band_core", Type::integer, -1, 4096,
                    "core whose loads feed the latency bands "
                    "(-1: all cores)",
                    ACCESS_INT(s.obs.bandCore)));
    add(makeNumeric("obs.drift_warn_fraction", Type::real, 0, 1,
                    "flag a band when more than this fraction of "
                    "its samples fall outside the calibrated range",
                    ACCESS_REAL(s.obs.driftWarnFraction)));
    add(makeNumeric("obs.pair", Type::integer, -1, 64,
                    "fleet pair whose channel events feed the "
                    "health report (-1: all pairs)",
                    ACCESS_INT(s.obs.pair)));
}

#undef ACCESS_INT
#undef ACCESS_REAL
#undef ACCESS_BOOL
#undef ACCESS_TEXT

} // namespace csim
