/**
 * @file
 * cohersim — command-line driver for the CoherSim library.
 *
 * Subcommands:
 *   info       print the simulated machine, Table I, presets, fields
 *   calibrate  measure the (location, coherence state) latency bands
 *   transmit   run one covert transmission and print the result
 *   sweep      run the experiment grid of a sweep spec
 *   trace      describe the tracing subsystem's event vocabulary
 *   report     run-health report: band separation, error budget,
 *              windowed telemetry (live run or saved trace)
 *   profile    self-profile: per-subsystem span tree of the
 *              resolved experiment grid
 *
 * Every experiment subcommand resolves one declarative
 * `ExperimentSpec` through layers of increasing precedence:
 *
 *   defaults -> --preset NAME -> --config FILE -> --key value
 *
 * Any registry field (see `cohersim info --fields`) works as a
 * `--key value` override; unknown keys are rejected with the accepted
 * list. `--dump-config FILE` writes the fully resolved spec as a
 * re-runnable JSON manifest.
 *
 * Run `cohersim <subcommand> --help` for the options of each.
 */

#include <bit>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cohersim/attack.hh"
#include "cohersim/harness.hh"
#include "cohersim/observe.hh"

namespace
{

using namespace csim;

/**
 * Command line split into tool-level options (trace files, worker
 * counts...) and config-field overrides. Any `--key` that is neither
 * a known tool option nor a registry field (by name or alias) is
 * rejected up front with the accepted-keys message, so a typo like
 * `--flavour mesif` fails loudly instead of silently running the
 * default configuration.
 */
class Args
{
  public:
    Args(int argc, char **argv, int first,
         std::initializer_list<const char *> tool_values = {},
         std::initializer_list<const char *> tool_flags = {})
    {
        const std::set<std::string> values(tool_values.begin(),
                                           tool_values.end());
        const std::set<std::string> flags(tool_flags.begin(),
                                          tool_flags.end());
        const FieldRegistry &reg = FieldRegistry::instance();
        for (int i = first; i < argc; ++i) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0)
                throw ConfigError(
                    msgCat("unexpected argument: ", key));
            key = key.substr(2);
            if (key == "help") {
                help = true;
                continue;
            }
            if (flags.count(key)) {
                flags_.insert(key);
                continue;
            }
            const bool tool = values.count(key) > 0;
            if (!tool && !reg.find(key))
                throw ConfigError(
                    reg.unknownKeyMessage(key, "cli"));
            if (i + 1 >= argc)
                throw ConfigError(
                    msgCat("missing value for --", key));
            if (tool)
                tool_[key] = argv[++i];
            else
                overrides_.emplace_back(key, argv[++i]);
        }
    }

    std::string
    str(const std::string &key, const std::string &fallback) const
    {
        const auto it = tool_.find(key);
        return it == tool_.end() ? fallback : it->second;
    }

    /**
     * A whole-number tool option in [lo, hi] (@p base 0 also takes a
     * 0x prefix); a malformed or out-of-range value is a ConfigError
     * naming the option.
     */
    std::int64_t
    num(const std::string &key, std::int64_t fallback,
        std::int64_t lo = 0, std::int64_t hi = INT_MAX,
        int base = 10) const
    {
        const auto it = tool_.find(key);
        if (it == tool_.end())
            return fallback;
        return parseIntegerIn("--" + key, it->second, lo, hi, base);
    }

    bool flag(const std::string &key) const
    {
        return flags_.count(key) > 0;
    }

    /**
     * Resolve the experiment spec: defaults, the subcommand's legacy
     * defaults (lowest precedence after the built-ins), then
     * --preset, --config and the remaining CLI overrides.
     */
    ConfigResolver
    resolve(std::initializer_list<
            std::pair<const char *, const char *>>
                subcommand_defaults = {}) const
    {
        ConfigResolver res;
        // The CLI has always seeded with 2018 (the paper's year)
        // unless told otherwise; keep that as a default-layer value
        // so every later layer can override it.
        res.applyOverride("system.seed", "2018", "default");
        res.applyOverride("channel.scenario", "RExclc-LSharedb",
                          "default");
        for (const auto &[key, value] : subcommand_defaults)
            res.applyOverride(key, value, "default");
        const std::string preset = str("preset", "");
        if (!preset.empty())
            res.applyPreset(preset);
        const std::string config = str("config", "");
        if (!config.empty())
            res.applyFile(config);
        for (const auto &[key, value] : overrides_)
            res.applyOverride(key, value, "cli");
        res.spec().validate();
        const std::string dump = str("dump-config", "");
        if (!dump.empty()) {
            res.dumpFile(dump);
            std::cout << "config:    resolved spec -> " << dump
                      << "\n";
        }
        return res;
    }

    /** True when any layer beyond the defaults was given. */
    bool
    layered() const
    {
        return !overrides_.empty() || tool_.count("preset") ||
               tool_.count("config");
    }

    bool help = false;

  private:
    std::map<std::string, std::string> tool_;
    std::set<std::string> flags_;
    std::vector<std::pair<std::string, std::string>> overrides_;
};

const char *kCommonHelp =
    "  --preset NAME       start from a named preset (see "
    "`cohersim info`)\n"
    "  --config FILE       apply a JSON config file\n"
    "  --key value         override any config field (see "
    "`cohersim info --fields`)\n"
    "  --dump-config FILE  write the resolved spec as a re-runnable "
    "manifest\n";

void
printProvenance(const ConfigResolver &res)
{
    TablePrinter table;
    table.header({"field", "value", "source"});
    const FieldRegistry &reg = FieldRegistry::instance();
    for (const FieldDef &f : reg.fields()) {
        table.row({f.name, f.format(f.get(res.spec())),
                   res.provenance(f.name)});
    }
    table.print(std::cout);
}

void
printFields()
{
    // One table per field-name prefix, in registry order: the
    // registry lays fields out section by section already.
    static const std::map<std::string, std::string> sections = {
        {"system", "System"},     {"mem", "Memory hierarchy"},
        {"channel", "Channel"},   {"phy", "PHY"},
        {"noise", "Noise workload"}, {"payload", "Payload"},
        {"sweep", "Sweep"},       {"fleet", "Fleet"},
        {"obs", "Observability"},
    };
    const FieldRegistry &reg = FieldRegistry::instance();
    const ExperimentSpec defaults;
    std::string current;
    TablePrinter table;
    const auto flush = [&] {
        if (!current.empty()) {
            table.print(std::cout);
            std::cout << "\n";
            table = TablePrinter();
        }
    };
    for (const FieldDef &f : reg.fields()) {
        const std::string prefix =
            f.name.substr(0, f.name.find('.'));
        if (prefix != current) {
            flush();
            current = prefix;
            const auto it = sections.find(prefix);
            std::cout << (it != sections.end() ? it->second
                                               : prefix)
                      << " fields:\n";
            table.header(
                {"field", "type", "default", "accepts", "doc"});
        }
        std::string accepts;
        if (f.type == FieldDef::Type::integer ||
            f.type == FieldDef::Type::real) {
            accepts = "[" + TablePrinter::num(f.min, 0) + ", " +
                      TablePrinter::num(f.max, 0) + "]";
        } else if (f.type == FieldDef::Type::choice) {
            for (const std::string &c : f.choices)
                accepts += (accepts.empty() ? "" : "|") + c;
        }
        std::string name = f.name;
        for (const std::string &alias : f.aliases)
            name += " (--" + alias + ")";
        table.row({name, fieldTypeName(f.type),
                   f.format(f.get(defaults)), accepts, f.doc});
    }
    flush();
}

int
cmdInfo(const Args &args)
{
    if (args.help) {
        std::cout << "cohersim info [--fields] [--preset NAME] "
                     "[--config FILE] [--key value]\n"
                     "  --fields  list every config field with type, "
                     "default, range and doc\n"
                  << kCommonHelp
                  << "  with a preset/config/override, prints the "
                     "resolved value and provenance\n"
                     "  of every field\n";
        return 0;
    }
    if (args.flag("fields")) {
        printFields();
        return 0;
    }
    const ConfigResolver res = args.resolve();
    const SystemConfig &sys = res.spec().channel.system;
    std::cout << "Simulated machine:\n"
              << "  " << sys.sockets << " sockets x "
              << sys.coresPerSocket << " cores @ "
              << sys.timing.clockGhz << " GHz\n"
              << "  L1 " << sys.l1.sizeBytes / 1024 << " KiB, L2 "
              << sys.l2.sizeBytes / 1024 << " KiB private; LLC "
              << sys.llc.sizeBytes / (1024 * 1024) << " MiB shared "
              << inclusivityName(sys.inclusivity) << "\n"
              << "  protocol " << coherenceFlavorName(sys.flavor)
              << " / " << coherenceLookupName(sys.lookup) << "\n\n";

    if (args.layered()) {
        std::cout << "Resolved configuration:\n";
        printProvenance(res);
        return 0;
    }

    TablePrinter table;
    table.header({"row", "scenario", "CSc", "CSb", "trojan threads"});
    int row = 1;
    for (const ScenarioInfo &sc : allScenarios()) {
        table.row({std::to_string(row++), sc.notation,
                   comboName(sc.csc), comboName(sc.csb),
                   std::to_string(sc.localLoaders) + " local + " +
                       std::to_string(sc.remoteLoaders) +
                       " remote"});
    }
    table.print(std::cout);

    std::cout << "\nPresets (use with --preset NAME or "
                 "{\"preset\": NAME} in a config file):\n";
    TablePrinter presets;
    presets.header({"preset", "description"});
    for (const Preset &p : allPresets())
        presets.row({p.name, p.doc});
    presets.print(std::cout);
    return 0;
}

int
cmdCalibrate(const Args &args)
{
    if (args.help) {
        std::cout << "cohersim calibrate [--samples N] [--seed S] "
                     "[--flavor mesi|mesif|moesi] "
                     "[--lookup directory|snoop]\n"
                  << kCommonHelp;
        return 0;
    }
    const ConfigResolver res = args.resolve();
    const SystemConfig &sys = res.spec().channel.system;
    const int samples = static_cast<int>(args.num("samples", 1000, 1));
    const CalibrationResult cal = calibrate(sys, samples);
    TablePrinter table;
    table.header({"combination", "mean", "p1", "p99", "band"});
    auto row = [&](const std::string &name, const SampleSet &s,
                   const LatencyBand &b) {
        table.row({name, TablePrinter::num(s.mean()),
                   TablePrinter::num(s.percentile(1)),
                   TablePrinter::num(s.percentile(99)),
                   "[" + TablePrinter::num(b.lo) + ", " +
                       TablePrinter::num(b.hi) + "]"});
    };
    for (Combo c : allCombos()) {
        if (cal.comboSamples(c).count())
            row(comboName(c), cal.comboSamples(c), cal.band(c));
    }
    row("DRAM", cal.dramSamples, cal.dramBand);
    table.print(std::cout);
    return 0;
}

/** Dump a counter registry as one flat BENCH-style JSON artifact. */
void
writeCounters(const std::string &path, const CounterRegistry &reg)
{
    Json root = Json::object();
    root["counters"] = reg.toJson();
    writeJsonFile(path, root);
    std::cout << "counters:  " << reg.size() << " -> " << path
              << "\n";
}

/**
 * Calibrate per the spec's leakage vector: the coherence vector
 * keeps the historical 400-sample Fig. 2 band measurement, every
 * other vector runs its plugin's own two-band procedure.
 */
CalibrationResult
calibrateFor(const ExperimentSpec &spec)
{
    if (spec.channel.vector == VectorKind::coherence)
        return calibrate(spec.channel.system, 400);
    return makeLeakageVector(spec.channel.vector)
        ->calibrate(spec.toChannelConfig());
}

/**
 * Write what `--trace` captured in @p recorder to @p path as a
 * Perfetto/Chrome JSON trace.
 */
void
writeTransmitTrace(const std::string &path, TraceRecorder &recorder,
                   const SystemConfig &sys)
{
    const std::vector<TraceEvent> events = recorder.drain();
    writePerfettoTrace(path, events, sys);
    std::uint32_t categories = 0;
    for (const TraceEvent &ev : events)
        categories |= categoryBit(ev.category);
    std::cout << "trace:     " << events.size() << " events ("
              << std::popcount(categories) << " categories) -> "
              << path << "\n";
}

/**
 * The multi-tenant transmit summary (FleetSpec::enabled): N
 * concurrent pairs on one machine, a per-pair results table and the
 * machine-aggregate CC-Hunter verdict.
 */
int
printFleetTransmit(const ExperimentSpec &run, const FleetReport &rep)
{
    std::cout << "fleet:     " << run.fleet.pairs << " pair(s), "
              << run.fleet.noiseAgents << " noise agent(s), stagger "
              << run.fleet.staggerCycles << " cycles\n";
    TablePrinter table;
    table.header({"pair", "scenario", "accuracy", "eff Kbps",
                  "detected", "done"});
    for (const PairReport &pr : rep.pairs) {
        table.row({std::to_string(pr.pairId),
                   scenarioInfo(pr.scenario).notation,
                   TablePrinter::pct(pr.metrics.accuracy),
                   TablePrinter::num(pr.metrics.effectiveKbps),
                   pr.detect.suspicious ? "yes" : "no",
                   pr.completed ? "yes" : "NO"});
    }
    table.print(std::cout);
    std::cout << "detected:  " << rep.pairsFlagged << "/"
              << rep.pairs.size()
              << " pair(s) flagged per-line; aggregate stream "
              << (rep.aggregate.suspicious ? "SUSPICIOUS"
                                           : "not suspicious")
              << " (cv " << TablePrinter::num(rep.aggregate.intervalCv)
              << ", alternation "
              << TablePrinter::num(rep.aggregate.alternation)
              << ")\n"
              << "completed: " << (rep.completed ? "yes" : "NO")
              << "\n";
    return rep.completed ? 0 : 1;
}

int
cmdTransmit(const Args &args)
{
    if (args.help) {
        std::cout
            << "cohersim transmit [--message TEXT] [--bits N] "
               "[--scenario NAME|ROW] [--rate KBPS] "
               "[--sharing explicit|ksm] [--noise N] "
               "[--defense NAME] [--seed S]\n"
               "                  [--trace FILE] [--counters FILE]\n"
            << kCommonHelp
            << "  --trace FILE     capture the run and write a "
               "Perfetto/Chrome JSON trace\n"
               "  --counters FILE  dump the machine-wide counter "
               "totals as JSON\n"
               "  --phy.profile legacy-parity runs the paper's "
               "parity+NACK chain (Fig. 10); hamming-hard and\n"
               "  hamming-soft run the framed FEC stack "
               "(coherence vector, one pair)\n"
               "  fleet.pairs > 1 or fleet.noise_agents > 0 (e.g. "
               "--preset fleet-quick, or --fleet.pairs 4)\n"
               "  runs N concurrent trojan/spy pairs on one machine "
               "and reports per-pair accuracy\n"
               "  plus the aggregate CC-Hunter verdict\n";
        return 0;
    }
    const ConfigResolver res = args.resolve();
    ExperimentSpec run = res.spec();
    const std::string trace_path = args.str("trace", "");
    const std::string counters_path = args.str("counters", "");
    TraceRecorder recorder;
    if (!trace_path.empty())
        run.channel.taps.push_back(&recorder);
    const ExperimentResult result = runExperiment(run);
    const bool fleet = result.kind == ExperimentKind::fleet;
    if (!trace_path.empty())
        writeTransmitTrace(trace_path, recorder, run.channel.system);
    if (!counters_path.empty()) {
        writeCounters(counters_path, fleet ? result.fleet.counters
                                           : result.channel.counters);
    }
    if (fleet)
        return printFleetTransmit(run, result.fleet);

    const ChannelReport &rep = result.channel;
    std::cout << "scenario:  "
              << scenarioInfo(run.channel.scenario).notation
              << " over " << sharingModeName(run.channel.sharing)
              << " sharing, " << run.channel.noiseThreads
              << " noise thread(s)";
    if (run.channel.defense != Defense::none)
        std::cout << ", defense "
                  << defenseName(run.channel.defense);
    std::cout << "\n";
    if (run.channel.vector != VectorKind::coherence) {
        const VectorBandInfo info =
            vectorBandInfo(run.channel.vector);
        std::cout << "vector:    " << vectorName(run.channel.vector)
                  << " (" << info.carrier << ")\n";
    }
    if (run.payload.bits <= 0)
        std::cout << "received:  \"" << bitsToText(rep.received)
                  << "\"\n";
    std::cout << "accuracy:  "
              << TablePrinter::pct(rep.metrics.accuracy) << "\n"
              << "rate:      "
              << TablePrinter::num(rep.metrics.rawKbps)
              << " Kbps raw, "
              << TablePrinter::num(rep.metrics.effectiveKbps)
              << " Kbps effective\n";
    if (run.channel.phy.profile == PhyProfile::legacyParity) {
        std::cout << "phy:       legacy-parity, " << rep.phy.frames
                  << " packet(s), " << rep.metrics.retransmits
                  << " retransmission(s), " << rep.phy.residualErrors
                  << " residual error(s)\n";
    } else if (result.kind == ExperimentKind::phy) {
        std::cout << "phy:       "
                  << phyProfileName(run.channel.phy.profile) << ", "
                  << rep.counters.value("ch.phy.frames_accepted")
                  << "/" << rep.counters.value("ch.phy.frames_sent")
                  << " frames, fec "
                  << rep.counters.value("ch.phy.fec_corrected")
                  << " corrected / "
                  << rep.counters.value("ch.phy.fec_uncorrectable")
                  << " uncorrectable\n";
    }
    std::cout << "completed: " << (rep.completed ? "yes" : "NO")
              << "\n";
    return rep.completed ? 0 : 1;
}

int
cmdSweep(const Args &args)
{
    if (args.help) {
        std::cout
            << "cohersim sweep [--scenario NAME|ROW] [--bits N] "
               "[--from KBPS] [--to KBPS] [--step KBPS] "
               "[--noise N] [--seed S] [--jobs N] "
               "[--counters FILE]\n"
            << kCommonHelp
            << "  sweep axes (sweep.scenarios, sweep.rates, "
               "sweep.noise_levels) expand into a grid;\n"
               "  every grid point is one independent simulation, "
               "fanned out over --jobs workers\n"
               "  --counters FILE  dump per-point counters and "
               "summed totals as JSON\n";
        return 0;
    }
    // The historical CLI sweep: 100..1000 Kbps in steps of 100, a
    // 300-bit random payload, payload-derived timeouts.
    const ConfigResolver res =
        args.resolve({{"sweep.from_kbps", "100"},
                      {"sweep.to_kbps", "1000"},
                      {"sweep.step_kbps", "100"},
                      {"payload.bits", "300"},
                      {"channel.timeout_margin", "10"}});
    const ExperimentSpec &base = res.spec();
    // Each row prints one pair's channel metrics.
    if (base.fleet.enabled())
        throw ConfigError(msgCat(
            "sweep runs a single pair, not fleet.pairs = ",
            base.fleet.pairs, " with fleet.noise_agents = ",
            base.fleet.noiseAgents,
            "; sweep fleets with the fleet_scaling bench"));
    const std::string counters_path = args.str("counters", "");
    // The sweep payload keeps its historical seed derivation
    // (seed + 2) so existing sweep outputs stay reproducible.
    Rng rng(base.channel.system.seed + 2);
    const BitString payload = randomBits(rng, base.payloadBits());
    const CalibrationResult cal = calibrateFor(base);

    const std::vector<ExperimentSpec> grid = expandGrid(base);

    // The per-point simulations are independent; fan them out across
    // host cores. Results are bit-identical for any --jobs value.
    RunnerOptions opts;
    opts.jobs = static_cast<int>(args.num("jobs", 0));
    struct PointResult
    {
        ChannelMetrics metrics;
        CounterRegistry counters;
    };
    std::vector<std::function<PointResult()>> jobs;
    for (const ExperimentSpec &point : grid) {
        jobs.push_back([&point, &cal, &payload] {
            const ExperimentResult r =
                runExperiment(point, &cal, &payload);
            return PointResult{r.channel.metrics,
                               r.channel.counters};
        });
    }
    const std::vector<PointResult> results =
        runJobs(std::move(jobs), opts);

    const GridAxes axes = sweepAxes(base);
    const bool many_scenarios = axes.scenarios.size() > 1;
    const bool many_noise = axes.noiseLevels.size() > 1;
    TablePrinter table;
    {
        std::vector<std::string> header;
        if (many_scenarios)
            header.push_back("scenario");
        header.push_back("target Kbps");
        if (many_noise)
            header.push_back("noise");
        header.insert(header.end(), {"measured Kbps",
                                     "effective Kbps", "accuracy"});
        table.row(std::move(header));
    }
    for (std::size_t i = 0; i < grid.size(); ++i) {
        std::vector<std::string> row;
        if (many_scenarios)
            row.push_back(
                scenarioInfo(grid[i].channel.scenario).notation);
        row.push_back(TablePrinter::num(grid[i].rateKbps, 0));
        if (many_noise)
            row.push_back(
                std::to_string(grid[i].channel.noiseThreads));
        row.insert(row.end(),
                   {TablePrinter::num(results[i].metrics.rawKbps),
                    TablePrinter::num(
                        results[i].metrics.effectiveKbps),
                    TablePrinter::pct(
                        results[i].metrics.accuracy)});
        table.row(row);
    }
    table.print(std::cout);

    if (!counters_path.empty()) {
        // Merge in submission order: totals are then bit-identical
        // for any --jobs value.
        CounterRegistry totals;
        Json points = Json::array();
        for (std::size_t i = 0; i < grid.size(); ++i) {
            totals.merge(results[i].counters);
            Json row = Json::object();
            row["scenario"] =
                scenarioInfo(grid[i].channel.scenario).notation;
            row["target_kbps"] = grid[i].rateKbps;
            row["noise_threads"] =
                static_cast<std::int64_t>(
                    grid[i].channel.noiseThreads);
            row["counters"] = results[i].counters.toJson();
            points.push(std::move(row));
        }
        Json root = Json::object();
        root["rates"] = std::move(points);
        root["totals"] = totals.toJson();
        writeJsonFile(counters_path, root);
        std::cout << "counters: " << totals.size() << " -> "
                  << counters_path << "\n";
    }
    return 0;
}

int
cmdTrace(const Args &args)
{
    if (args.help || !args.flag("list-categories")) {
        std::cout
            << "cohersim trace --list-categories\n"
               "  list every trace category and its event types; "
               "capture a trace with\n"
               "  `cohersim transmit --trace FILE` and open the file "
               "in ui.perfetto.dev\n";
        return args.help ? 0 : 2;
    }
    TablePrinter table;
    table.header({"category", "bit", "events"});
    for (int c = 0; c < numTraceCategories; ++c) {
        const auto cat = static_cast<TraceCategory>(c);
        std::string names;
        for (int t = 0;
             t < static_cast<int>(TraceEventType::numTypes); ++t) {
            const auto type = static_cast<TraceEventType>(t);
            if (traceTypeCategory(type) != cat)
                continue;
            if (!names.empty())
                names += " ";
            names += traceTypeName(type);
        }
        char bit[16];
        std::snprintf(bit, sizeof(bit), "0x%02x", categoryBit(cat));
        table.row({traceCategoryName(cat), bit, names});
    }
    table.print(std::cout);
    return 0;
}

/** One row of `cohersim inspect` output for the current state. */
void
snapshotRow(TablePrinter &table, const std::string &step,
            const MemorySystem &mem, PAddr line)
{
    const LineSnapshot snap = mem.inspect(line);
    const SystemConfig &sys = mem.config();
    std::string priv;
    for (int c = 0; c < sys.numCores(); ++c) {
        if (c > 0 && c % sys.coresPerSocket == 0)
            priv += '|';
        const Mesi st = snap.priv[static_cast<std::size_t>(c)];
        priv += st == Mesi::invalid ? "." : mesiName(st);
    }
    std::string per_socket;
    for (int s = 0; s < sys.sockets; ++s) {
        const auto &v = snap.sockets[static_cast<std::size_t>(s)];
        if (s > 0)
            per_socket += "  ";
        per_socket += "s" + std::to_string(s) + ":" +
                      (v.llcHas ? "llc" : "---") + " cv=" +
                      std::to_string(v.coreValid) + " res=" +
                      std::to_string(v.residency) +
                      (v.dirty ? " dirty" : "") +
                      (v.ownerModified ? " om" : "");
    }
    table.row({step, priv, std::to_string(snap.presence),
               per_socket});
}

int
cmdInspect(const Args &args)
{
    if (args.help) {
        std::cout
            << "cohersim inspect [--line ADDR] [--seed S] "
               "[--flavor mesi|mesif|moesi]\n"
               "                 [--mem.inclusivity MODE] "
               "[--lookup directory|snoop]\n"
               "  --line ADDR  physical address to follow "
               "(default 0x40000000)\n"
            << kCommonHelp
            << "  drives one line through the canonical protocol "
               "sequence and prints\n"
               "  the machine-wide LineSnapshot after every step\n";
        return 0;
    }
    const ConfigResolver res = args.resolve();
    SystemConfig sys = res.spec().channel.system;
    // Quiet timing: inspect is about state, not latency noise.
    sys.timing.jitterSd = 0.0;
    sys.timing.longTailProb = 0.0;
    MemorySystem mem(sys);
    const PAddr line = static_cast<PAddr>(
        args.num("line", 0x40000000, 0, INT64_MAX, 0));
    const CoreId remote = sys.coreOf(sys.sockets - 1, 0);

    std::cout << "Following line 0x" << std::hex << lineAlign(line)
              << std::dec << " ("
              << coherenceFlavorName(sys.flavor) << ", "
              << inclusivityName(sys.inclusivity)
              << " LLC). priv: one column per core, '|' between "
                 "sockets.\n\n";
    TablePrinter table;
    table.header({"step", "priv", "dir", "sockets"});
    Tick now = 0;
    snapshotRow(table, "initial", mem, line);
    mem.load(0, line, now += 1000);
    snapshotRow(table, "load c0 (fill E)", mem, line);
    mem.load(1, line, now += 1000);
    snapshotRow(table, "load c1 (share)", mem, line);
    mem.store(0, line, now += 1000);
    snapshotRow(table, "store c0 (upgrade M)", mem, line);
    mem.load(remote, line,  now += 1000);
    snapshotRow(table,
                "load c" + std::to_string(remote) + " (remote)",
                mem, line);
    mem.flush(0, line, now += 1000);
    snapshotRow(table, "flush c0", mem, line);
    mem.load(0, line, now += 1000);
    snapshotRow(table, "reload c0", mem, line);
    table.print(std::cout);

    const std::string bad = mem.checkInvariants();
    if (!bad.empty()) {
        std::cerr << "invariant violation: " << bad << "\n";
        return 1;
    }
    return 0;
}

/** Write the report's side artifacts (--json / --csv). */
void
emitHealthArtifacts(const RunHealth &health,
                    const std::string &json_path,
                    const std::string &csv_path)
{
    if (!json_path.empty()) {
        writeJsonFile(json_path, healthJson(health));
        std::cout << "json:      health report -> " << json_path
                  << "\n";
    }
    if (!csv_path.empty()) {
        std::ofstream out(csv_path);
        out << healthCsv(health);
        fatal_if(!out.good(), "cannot write ", csv_path);
        std::cout << "csv:       windowed timeseries -> " << csv_path
                  << "\n";
    }
}

int
cmdReport(const Args &args)
{
    if (args.help) {
        std::cout
            << "cohersim report [--jobs N] [--json FILE] "
               "[--csv FILE] [--trace FILE]\n"
            << kCommonHelp
            << "  runs the resolved experiment grid with the "
               "run-health monitor attached and\n"
               "  prints band separation, the decode-error budget "
               "and the windowed timeseries;\n"
               "  tune the telemetry with the obs.* fields "
               "(`cohersim info --fields`)\n"
               "  --trace FILE  analyze a saved Perfetto capture "
               "instead of running\n"
               "  --json FILE   write the machine-readable report "
               "document\n"
               "  --csv FILE    write the windowed timeseries as "
               "CSV\n"
               "  --jobs N      worker threads; the report is "
               "bit-identical for any N\n";
        return 0;
    }
    const std::string trace_path = args.str("trace", "");
    const std::string json_path = args.str("json", "");
    const std::string csv_path = args.str("csv", "");

    if (!trace_path.empty()) {
        // Offline: replay a saved capture through the monitor. No
        // calibration is recorded in a trace, so drift columns and
        // band-vs-calibration checks stay empty.
        const ConfigResolver res = args.resolve();
        const std::vector<TraceEvent> events =
            readPerfettoTrace(trace_path);
        std::cout << "trace:     " << events.size()
                  << " events <- " << trace_path << "\n";
        // A capture without channel events yields a report with no
        // bit counters or error budget at all — say why, instead of
        // printing an all-zero document as if the run were clean.
        std::uint64_t channel_events = 0;
        for (const TraceEvent &ev : events) {
            if (ev.category == TraceCategory::channel)
                ++channel_events;
        }
        if (events.empty()) {
            warn("trace ", trace_path, " holds no events this "
                 "vocabulary understands; nothing to report");
        } else if (channel_events == 0) {
            warn("trace ", trace_path, " contains no channel-"
                 "category events — bit counters and the error "
                 "budget below are empty");
        }
        const RunHealth health = analyzeTrace(events, res.spec().obs);
        emitHealthArtifacts(health, json_path, csv_path);
        renderHealthReport(std::cout, health);
        return 0;
    }

    const ConfigResolver res =
        args.resolve({{"payload.bits", "300"},
                      {"channel.timeout_margin", "20"}});
    const ExperimentSpec &base = res.spec();
    // Same payload derivation as the sweep (seed + 2), so a report
    // describes the same transmissions the sweep benches measure.
    Rng rng(base.channel.system.seed + 2);
    const BitString payload = randomBits(rng, base.payloadBits());
    const CalibrationResult cal = calibrateFor(base);

    const std::vector<ExperimentSpec> grid = expandGrid(base);
    std::cout << "report:    " << grid.size()
              << " grid point(s), window "
              << base.obs.windowCycles << " cycles\n";

    RunnerOptions opts;
    opts.jobs = static_cast<int>(args.num("jobs", 0));
    std::vector<std::function<RunHealth()>> jobs;
    for (const ExperimentSpec &point : grid) {
        jobs.push_back([&point, &cal, &payload] {
            RunHealthMonitor monitor(point.obs);
            seedVectorBands(monitor, point.channel.vector, cal);
            ExperimentSpec tapped = point;
            tapped.channel.taps.push_back(&monitor);
            runExperiment(tapped, &cal, &payload);
            return monitor.finalize();
        });
    }
    const std::vector<RunHealth> results =
        runJobs(std::move(jobs), opts);

    // Merge in submission order: the merged record — and therefore
    // the whole rendered report — is bit-identical for any --jobs.
    RunHealth health(base.obs);
    for (const RunHealth &r : results)
        health.merge(r);

    emitHealthArtifacts(health, json_path, csv_path);
    renderHealthReport(std::cout, health);
    return 0;
}

int
cmdProfile(const Args &args)
{
    if (args.help) {
        std::cout
            << "cohersim profile [--jobs N] [--json FILE] "
               "[--csv FILE] [--trace FILE]\n"
            << kCommonHelp
            << "  runs the resolved experiment grid with the "
               "self-profiler enabled and prints\n"
               "  the aggregated span tree (count / wall time / "
               "virtual cycles per span path);\n"
               "  count and vcycles are bit-identical for any "
               "--jobs, wall time is host noise\n"
               "  --json FILE   write the profile document "
               "(cohersim.profile.v1)\n"
               "  --csv FILE    write the flat "
               "path,depth,count,wall_ns,vcycles table\n"
               "  --trace FILE  Perfetto trace of the first grid "
               "point with per-span wall-time\n"
               "                tracks alongside the virtual-time "
               "event lanes\n";
        return 0;
    }
    const std::string trace_path = args.str("trace", "");
    const std::string json_path = args.str("json", "");
    const std::string csv_path = args.str("csv", "");

    // Same spec resolution as `report`, so a profile describes the
    // same transmissions the report/bench paths run.
    const ConfigResolver res =
        args.resolve({{"payload.bits", "300"},
                      {"channel.timeout_margin", "20"}});
    const ExperimentSpec &base = res.spec();
    Rng rng(base.channel.system.seed + 2);
    const BitString payload = randomBits(rng, base.payloadBits());

    Profiler::setEnabled(true);
    Profiler::setCaptureTracks(!trace_path.empty());
    Profiler::instance().reset();

    // Calibration is profiled too (it is real startup cost), under
    // its own top-level span so it does not skew the grid spans.
    CalibrationResult cal;
    {
        ScopedSpan span("profile.calibrate");
        cal = calibrateFor(base);
    }

    const std::vector<ExperimentSpec> grid = expandGrid(base);
    std::cout << "profile:   " << grid.size()
              << " grid point(s), sample stride "
              << Profiler::sampleStride << "\n";

    TraceRecorder recorder;
    RunnerOptions opts;
    opts.jobs = static_cast<int>(args.num("jobs", 0));
    std::vector<std::function<int()>> jobs;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const ExperimentSpec &point = grid[i];
        // Only the first grid point feeds the Perfetto capture: one
        // machine per trace file (pids are sockets).
        const bool record = !trace_path.empty() && i == 0;
        jobs.push_back([&point, &cal, &payload, record, &recorder] {
            ExperimentSpec run = point;
            if (record)
                run.channel.taps.push_back(&recorder);
            runExperiment(run, &cal, &payload);
            return 0;
        });
    }
    runJobs(std::move(jobs), opts);

    // Workers are joined; the snapshot is safe and complete.
    const ProfileSnapshot snap = Profiler::instance().snapshot();
    Profiler::setCaptureTracks(false);

    if (!trace_path.empty()) {
        const std::vector<TraceEvent> events = recorder.drain();
        Json doc = perfettoTraceJson(events, base.channel.system);
        appendProfilerTracks(doc, snap);
        writeJsonFile(trace_path, doc);
        std::cout << "trace:     " << events.size()
                  << " sim events + " << snap.tracks.size()
                  << " profiler spans -> " << trace_path << "\n";
        if (snap.trackDropped > 0) {
            warn("profiler track buffer overflowed; ",
                 snap.trackDropped, " spans missing from ",
                 trace_path, " (aggregated totals are complete)");
        }
    }
    if (!json_path.empty()) {
        writeJsonFile(json_path, profileJson(snap));
        std::cout << "json:      profile -> " << json_path << "\n";
    }
    if (!csv_path.empty()) {
        std::ofstream out(csv_path);
        out << profileCsv(snap);
        fatal_if(!out.good(), "cannot write ", csv_path);
        std::cout << "csv:       profile -> " << csv_path << "\n";
    }
    renderProfile(std::cout, snap);
    return 0;
}

void
usage()
{
    std::cout
        << "usage: cohersim <subcommand> [--options]\n\n"
           "subcommands:\n"
           "  info       machine configuration, Table I, presets and "
           "config fields\n"
           "  calibrate  measure the latency bands (paper Fig. 2)\n"
           "  transmit   run one covert transmission\n"
           "  sweep      run the experiment grid of a sweep spec\n"
           "  inspect    follow one line's LineSnapshot through the "
           "protocol\n"
           "  trace      tracing subsystem: list event categories\n"
           "  report     run-health report: band separation, error "
           "budget, windowed\n"
           "             telemetry (live run, or --trace FILE for a "
           "saved capture)\n"
           "  profile    self-profile: per-subsystem span tree "
           "(wall time + virtual\n"
           "             cycles) of the resolved experiment grid\n\n"
           "every experiment subcommand accepts --preset NAME, "
           "--config FILE,\n"
           "--dump-config FILE and --key value overrides of any "
           "config field\n"
           "(`cohersim info --fields` lists them)\n\n"
           "run `cohersim <subcommand> --help` for options\n";
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string cmd = argv[1];
    try {
        const Args args(
            argc, argv, 2,
            {"preset", "config", "dump-config", "trace", "counters",
             "samples", "jobs", "line", "json", "csv"},
            {"list-categories", "fields"});
        if (cmd == "info")
            return cmdInfo(args);
        if (cmd == "calibrate")
            return cmdCalibrate(args);
        if (cmd == "transmit")
            return cmdTransmit(args);
        if (cmd == "sweep")
            return cmdSweep(args);
        if (cmd == "inspect")
            return cmdInspect(args);
        if (cmd == "trace")
            return cmdTrace(args);
        if (cmd == "report")
            return cmdReport(args);
        if (cmd == "profile")
            return cmdProfile(args);
    } catch (const ConfigError &e) {
        std::cerr << "cohersim: " << e.what() << "\n";
        return 2;
    } catch (const JsonParseError &e) {
        std::cerr << "cohersim: " << e.what() << "\n";
        return 2;
    } catch (const std::runtime_error &e) {
        // fatal() printed its message before throwing; any other
        // runtime error has not been reported yet.
        if (std::string_view(e.what()).rfind("fatal: ", 0) != 0)
            std::cerr << "cohersim: " << e.what() << "\n";
        return 1;
    }
    usage();
    return 2;
}
