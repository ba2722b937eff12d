/**
 * @file
 * Tests for the declarative experiment-config subsystem: the field
 * registry (validation, unknown keys, ranges), JSON round trips
 * through the parser, layered resolution with provenance, grid
 * expansion, and — the regression anchor — that every shipped preset
 * validates and builds a runnable machine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "channel/experiment.hh"
#include "config/presets.hh"
#include "config/resolver.hh"
#include "os/kernel.hh"
#include "runner/json_sink.hh"

namespace csim
{
namespace
{

// --- JSON parser ------------------------------------------------------

TEST(JsonParser, ParsesScalarsAndContainers)
{
    const Json root = parseJson(
        "{\"a\": 1, \"b\": -2.5, \"c\": true, \"d\": null, "
        "\"e\": \"text\", \"f\": [1, 2, 3], \"g\": {\"h\": 0}}");
    ASSERT_TRUE(root.isObject());
    EXPECT_EQ(root.find("a")->asInt(), 1);
    EXPECT_DOUBLE_EQ(root.find("b")->asDouble(), -2.5);
    EXPECT_TRUE(root.find("c")->asBool());
    EXPECT_TRUE(root.find("d")->isNull());
    EXPECT_EQ(root.find("e")->asString(), "text");
    ASSERT_TRUE(root.find("f")->isArray());
    EXPECT_EQ(root.find("f")->items().size(), 3u);
    EXPECT_EQ(root.find("g")->find("h")->asInt(), 0);
    EXPECT_EQ(root.find("missing"), nullptr);
}

TEST(JsonParser, KeepsIntegersAndDoublesApart)
{
    const Json root = parseJson("{\"i\": 42, \"d\": 42.0}");
    EXPECT_TRUE(root.find("i")->isInt());
    EXPECT_FALSE(root.find("d")->isInt());
    EXPECT_TRUE(root.find("d")->isNumber());
}

TEST(JsonParser, DecodesStringEscapes)
{
    const Json root =
        parseJson("{\"s\": \"a\\n\\\"b\\\"\\u0041\"}");
    EXPECT_EQ(root.find("s")->asString(), "a\n\"b\"A");
}

TEST(JsonParser, ReportsLineAndColumn)
{
    try {
        parseJson("{\n  \"a\": 1,\n  oops\n}");
        FAIL() << "expected JsonParseError";
    } catch (const JsonParseError &e) {
        EXPECT_EQ(e.line, 3);
        EXPECT_GT(e.column, 0);
    }
}

TEST(JsonParser, RejectsTrailingContent)
{
    EXPECT_THROW(parseJson("{} extra"), JsonParseError);
    EXPECT_THROW(parseJson("[1, 2,]"), JsonParseError);
    EXPECT_THROW(parseJson(""), JsonParseError);
}

TEST(JsonParser, RoundTripsDump)
{
    Json root = Json::object();
    root["int"] = std::int64_t{1234567890123};
    root["real"] = 0.1;
    root["text"] = "line\nbreak";
    root["flag"] = false;
    const Json again = parseJson(root.dump());
    EXPECT_EQ(again.dump(), root.dump());
    EXPECT_DOUBLE_EQ(again.find("real")->asDouble(), 0.1);
}

// --- field registry ---------------------------------------------------

TEST(FieldRegistry, FindsFieldsByNameAndAlias)
{
    const FieldRegistry &reg = FieldRegistry::instance();
    const FieldDef *by_name = reg.find("channel.rate_kbps");
    const FieldDef *by_alias = reg.find("rate");
    ASSERT_NE(by_name, nullptr);
    EXPECT_EQ(by_name, by_alias);
    EXPECT_EQ(reg.find("no.such.key"), nullptr);
}

TEST(FieldRegistry, RejectsOutOfRangeValues)
{
    ConfigResolver res;
    try {
        res.applyOverride("system.sockets", "99", "cli");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("system.sockets"), std::string::npos);
        EXPECT_NE(msg.find("99"), std::string::npos);
        EXPECT_NE(msg.find("[2, 8]"), std::string::npos);
    }
}

TEST(FieldRegistry, RejectsBadChoices)
{
    ConfigResolver res;
    try {
        res.applyOverride("system.flavor", "mesix", "cli");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("mesix"), std::string::npos);
        EXPECT_NE(msg.find("moesi"), std::string::npos);
    }
}

TEST(FieldRegistry, UnknownKeySuggestsNearestField)
{
    ConfigResolver res;
    try {
        res.applyOverride("flavour", "mesif", "cli");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("unknown config key 'flavour'"),
                  std::string::npos);
        EXPECT_NE(msg.find("system.flavor"), std::string::npos);
        EXPECT_NE(msg.find("info --fields"), std::string::npos);
    }
}

TEST(FieldRegistry, ParsesScenarioRowNumbers)
{
    ConfigResolver res;
    res.applyOverride("scenario", "4", "cli");
    EXPECT_EQ(res.spec().channel.scenario, Scenario::rexcC_lshB);
    res.applyOverride("scenario", "RSharedc-LExclb", "cli");
    EXPECT_EQ(res.spec().channel.scenario, Scenario::rshC_lexB);
    EXPECT_THROW(res.applyOverride("scenario", "7", "cli"),
                 ConfigError);
}

TEST(FieldRegistry, EveryChoiceRoundTrips)
{
    // parse -> set -> get -> format gives every choice back, and
    // distinct choices leave distinct specs.
    const FieldRegistry &reg = FieldRegistry::instance();
    int choice_fields = 0;
    for (const FieldDef &f : reg.fields()) {
        if (f.type != FieldDef::Type::choice)
            continue;
        ++choice_fields;
        std::set<std::string> dumps;
        for (const std::string &choice : f.choices) {
            ConfigResolver res;
            res.applyOverride(f.name, choice, "test");
            EXPECT_EQ(f.format(f.get(res.spec())), choice) << f.name;
            dumps.insert(res.toJson().dump());
        }
        EXPECT_EQ(dumps.size(), f.choices.size()) << f.name;
    }
    EXPECT_EQ(choice_fields, 10);
}

TEST(FieldRegistry, RejectsTypeMismatchesFromJson)
{
    ConfigResolver res;
    EXPECT_THROW(
        res.applyJson(parseJson("{\"system\": {\"seed\": \"x\"}}"),
                      "test"),
        ConfigError);
    try {
        res.applyJson(parseJson("{\"phy\": {\"whiten\": 1}}"), "test");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("must be a boolean"),
                  std::string::npos)
            << e.what();
    }
    // Integer fields accept integers only, not floats.
    EXPECT_THROW(
        res.applyJson(parseJson("{\"system\": {\"seed\": 1.5}}"),
                      "test"),
        ConfigError);
    // Real fields accept both.
    res.applyJson(
        parseJson("{\"channel\": {\"rate_kbps\": 250}}"), "test");
    EXPECT_DOUBLE_EQ(res.spec().rateKbps, 250.0);
}

// --- resolver: layering, provenance, round trip -----------------------

TEST(ConfigResolver, LayersOverrideInPrecedenceOrder)
{
    ConfigResolver res;
    EXPECT_EQ(res.provenance("system.seed"), "default");

    res.applyPreset("proto-moesi-snoop");
    EXPECT_EQ(res.spec().channel.system.flavor,
              CoherenceFlavor::moesi);
    EXPECT_EQ(res.provenance("system.flavor"),
              "preset:proto-moesi-snoop");

    res.applyJson(parseJson("{\"system\": {\"flavor\": \"mesif\", "
                            "\"seed\": 5}}"),
                  "file:test.json");
    EXPECT_EQ(res.spec().channel.system.flavor,
              CoherenceFlavor::mesif);
    EXPECT_EQ(res.provenance("system.flavor"), "file:test.json");
    EXPECT_EQ(res.spec().channel.system.seed, 5u);

    res.applyOverride("flavor", "mesi", "cli");
    EXPECT_EQ(res.spec().channel.system.flavor,
              CoherenceFlavor::mesi);
    EXPECT_EQ(res.provenance("system.flavor"), "cli");
    // The snoop lookup from the preset survives the later layers.
    EXPECT_EQ(res.spec().channel.system.lookup,
              CoherenceLookup::snoop);
    EXPECT_EQ(res.provenance("system.lookup"),
              "preset:proto-moesi-snoop");
}

TEST(ConfigResolver, ConfigFileCanStartFromPreset)
{
    ConfigResolver res;
    res.applyJson(
        parseJson("{\"preset\": \"RExclc-LExclb\", "
                  "\"channel\": {\"noise_threads\": 3}}"),
        "file:t.json");
    EXPECT_EQ(res.spec().channel.scenario, Scenario::rexcC_lexB);
    EXPECT_EQ(res.spec().channel.noiseThreads, 3);
}

TEST(ConfigResolver, RejectsUnknownPreset)
{
    ConfigResolver res;
    try {
        res.applyPreset("no-such-preset");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("available:"),
                  std::string::npos);
    }
}

TEST(ConfigResolver, DumpRoundTripsBitExactly)
{
    ConfigResolver res;
    res.applyPreset("fig09-noise");
    res.applyOverride("system.timing.jitter_sd", "4.25", "cli");
    res.applyOverride("seed", "12345", "cli");
    const std::string dump1 = res.toJson().dump();

    ConfigResolver again;
    again.applyJson(parseJson(dump1), "file:dump");
    EXPECT_EQ(again.toJson().dump(), dump1);
    EXPECT_DOUBLE_EQ(
        again.spec().channel.system.timing.jitterSd, 4.25);
    EXPECT_EQ(again.spec().sweep.noiseLevels, "0,1,2,4,6,8");
}

TEST(ConfigResolver, DumpFileReloads)
{
    const std::string path = "test_config_dump.json";
    ConfigResolver res;
    res.applyOverride("scenario", "2", "cli");
    res.dumpFile(path);

    ConfigResolver again;
    again.applyFile(path);
    EXPECT_EQ(again.spec().channel.scenario, Scenario::rexcC_rshB);
    EXPECT_EQ(again.toJson().dump(), res.toJson().dump());
    std::remove(path.c_str());
}

TEST(ConfigResolver, EveryChoiceManifestReloads)
{
    // Every choice of every field survives a dump and reload.
    const FieldRegistry &reg = FieldRegistry::instance();
    for (const FieldDef &f : reg.fields()) {
        for (const std::string &choice : f.choices) {
            ConfigResolver res;
            res.applyOverride(f.name, choice, "test");
            const std::string dump = res.toJson().dump();
            ConfigResolver again;
            again.applyJson(parseJson(dump), "file:dump");
            EXPECT_EQ(again.toJson().dump(), dump)
                << f.name << " = " << choice;
        }
    }
}

TEST(ConfigResolver, NamesFileInUnknownKeyError)
{
    ConfigResolver res;
    try {
        res.applyJson(parseJson("{\"system\": {\"flavr\": "
                                "\"mesi\"}}"),
                      "file:bad.json");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("file:bad.json"), std::string::npos);
        EXPECT_NE(msg.find("system.flavr"), std::string::npos);
    }
}

/**
 * Feed @p text through what `--config FILE` does: read the file,
 * apply it, validate the spec. True when it resolved; a ConfigError
 * or JsonParseError is a clean rejection (false); anything else — a
 * panic's std::logic_error included — fails the test.
 */
bool
resolvesOrFailsCleanly(const std::string &text, const std::string &what)
{
    const std::string path = "test_config_fuzz.json";
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << text;
    }
    bool resolved = false;
    try {
        ConfigResolver res;
        res.applyFile(path);
        res.spec().validate();
        resolved = true;
    } catch (const ConfigError &) {
    } catch (const JsonParseError &) {
    } catch (const std::exception &e) {
        ADD_FAILURE() << what << ": " << e.what();
    } catch (...) {
        ADD_FAILURE() << what << ": non-standard exception";
    }
    std::remove(path.c_str());
    return resolved;
}

/** Dotted paths of every member of @p node, containers included. */
void
memberPaths(const Json &node, const std::string &prefix,
            std::vector<std::string> &out)
{
    for (const auto &[key, value] : node.entries()) {
        const std::string path = prefix.empty() ? key : prefix + "." + key;
        out.push_back(path);
        memberPaths(value, path, out);
    }
}

/**
 * A copy of @p node whose member at dotted @p path is renamed to
 * @p rename, or (with @p rename empty) has its value replaced by
 * @p value.
 */
Json
mutatedAt(const Json &node, const std::string &path,
          const std::string &rename, const Json &value)
{
    const std::size_t dot = path.find('.');
    const std::string head = path.substr(0, dot);
    Json out = Json::object();
    for (const auto &[key, member] : node.entries()) {
        if (key != head)
            out[key] = member;
        else if (dot != std::string::npos)
            out[key] = mutatedAt(member, path.substr(dot + 1), rename,
                                 value);
        else if (rename.empty())
            out[key] = value;
        else
            out[rename] = member;
    }
    return out;
}

/**
 * Seeded mutation fuzz of the config-file path: byte flips,
 * truncations, value-type swaps, renamed keys and hostile nesting of
 * the golden manifests must resolve or be refused with a message,
 * never crash, panic or hang.
 */
TEST(ConfigResolver, MutatedConfigsFailCleanly)
{
    std::vector<std::filesystem::path> manifests;
    for (const auto &entry : std::filesystem::directory_iterator(
             COHERSIM_GOLDEN_DIR "/config_fields"))
        if (entry.path().extension() == ".json")
            manifests.push_back(entry.path());
    std::sort(manifests.begin(), manifests.end());
    ASSERT_FALSE(manifests.empty());

    const std::vector<Json> swaps = {
        Json("7"), Json(2.5), Json(-5), Json(0), Json(nullptr),
        Json(true), Json::array(), Json::object(), Json(""),
        Json(std::numeric_limits<std::int64_t>::max()),
        Json(std::numeric_limits<std::int64_t>::min()),
        Json(std::numeric_limits<double>::max()),
    };
    Rng rng(2026);
    for (const std::filesystem::path &manifest : manifests) {
        std::ifstream in(manifest);
        std::stringstream buf;
        buf << in.rdbuf();
        const std::string text = buf.str();
        const std::string name = manifest.filename().string();
        ASSERT_TRUE(resolvesOrFailsCleanly(text, name)) << name;

        for (int i = 0; i < 60; ++i) {
            const std::size_t cut = rng.below(text.size());
            resolvesOrFailsCleanly(text.substr(0, cut),
                                   msgCat(name, " truncated at ", cut));
        }
        for (int i = 0; i < 150; ++i) {
            std::string flipped = text;
            const std::size_t at = rng.below(text.size());
            flipped[at] = static_cast<char>(rng.below(256));
            resolvesOrFailsCleanly(flipped, msgCat(name, " byte ", at));
        }

        const Json doc = parseJson(text);
        std::vector<std::string> paths;
        memberPaths(doc, "", paths);
        for (int i = 0; i < 150; ++i) {
            const std::string &path = paths[rng.below(paths.size())];
            const Json &swap = swaps[rng.below(swaps.size())];
            resolvesOrFailsCleanly(mutatedAt(doc, path, "", swap).dump(),
                                   msgCat(name, " swap ", i, " at ", path));
        }
        // Renames: typos, a case change, a NUL, a blank key and
        // another member's dotted path.
        for (int i = 0; i < 60; ++i) {
            const std::string &path = paths[rng.below(paths.size())];
            const std::string key = path.substr(path.rfind('.') + 1);
            const std::vector<std::string> renames = {
                key + "_", "_" + key.substr(1), std::string(1, '\0') + key,
                "Seed", " ", paths[rng.below(paths.size())]};
            const std::string &rename = renames[rng.below(renames.size())];
            resolvesOrFailsCleanly(mutatedAt(doc, path, rename, {}).dump(),
                                   msgCat(name, " rename ", path, " to ",
                                          rename));
        }

        // Nesting past the parser's 512 levels: around the document,
        // inside one of its values, and unclosed.
        std::string deep;
        for (int d = 0; d < 600; ++d)
            deep += "{\"system\": ";
        resolvesOrFailsCleanly(deep + text + std::string(600, '}'),
                               name + " under 600 objects");
        Json nested = Json::array();
        for (int d = 0; d < 520; ++d) {
            Json outer = Json::array();
            outer.push(std::move(nested));
            nested = std::move(outer);
        }
        resolvesOrFailsCleanly(
            mutatedAt(doc, paths.back(), "", nested).dump(),
            name + " 520-deep value at " + paths.back());
        resolvesOrFailsCleanly(std::string(200'000, '['), "deep [");
        resolvesOrFailsCleanly(std::string(200'000, '{'), "deep {");
    }
}

// --- spec semantics ---------------------------------------------------

TEST(ExperimentSpec, ValidatesCrossFieldConstraints)
{
    ExperimentSpec spec;
    spec.channel.params.c0 = 5;
    spec.channel.params.c1 = 5;
    EXPECT_THROW(spec.validate(), ConfigError);

    spec = ExperimentSpec{};
    spec.payload.message.clear();
    EXPECT_THROW(spec.validate(), ConfigError);

    spec = ExperimentSpec{};
    spec.channel.system.timing.longTailMin = 500;
    spec.channel.system.timing.longTailMax = 100;
    EXPECT_THROW(spec.validate(), ConfigError);

    // Every profile but raw is a PHY session, which runs on one
    // coherence pair: on another vector or on a fleet it is refused,
    // not ignored.
    for (const PhyProfile profile :
         {PhyProfile::legacyParity, PhyProfile::hammingHard,
          PhyProfile::hammingSoft, PhyProfile::adaptive}) {
        const std::string name =
            msgCat("phy.profile = ", phyProfileName(profile));
        ExperimentSpec dirty;
        dirty.channel.vector = VectorKind::dirty;
        ExperimentSpec fleet;
        fleet.fleet.pairs = 2;
        for (auto [bad, field] :
             {std::pair{&dirty, "channel.vector = coherence, not dirty"},
              std::pair{&fleet, "fleet.pairs = 2"}}) {
            bad->channel.phy.profile = profile;
            try {
                bad->validate();
                ADD_FAILURE() << name << ": expected ConfigError";
            } catch (const ConfigError &e) {
                const std::string msg = e.what();
                EXPECT_NE(msg.find(name), std::string::npos) << msg;
                EXPECT_NE(msg.find(field), std::string::npos) << msg;
            }
            bad->channel.phy.profile = PhyProfile::raw;
            EXPECT_NO_THROW(bad->validate()) << field;
        }
    }

    // A fleet owns its noise and its safety timeout: the per-pair
    // knobs are refused on one, not ignored.
    for (const std::string field :
         {"channel.noise_threads", "channel.timeout"}) {
        spec = ExperimentSpec{};
        spec.fleet.pairs = 2;
        if (field == "channel.timeout")
            spec.channel.timeout = 100'000;
        else
            spec.channel.noiseThreads = 4;
        try {
            spec.validate();
            ADD_FAILURE() << "expected ConfigError for " << field;
        } catch (const ConfigError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find(field), std::string::npos);
            EXPECT_NE(msg.find("fleet.pairs = 2"), std::string::npos);
        }
        // Noise agents make one pair a fleet too.
        spec.fleet.pairs = 1;
        spec.fleet.noiseAgents = 2;
        try {
            spec.validate();
            ADD_FAILURE() << "expected ConfigError for " << field;
        } catch (const ConfigError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("fleet.noise_agents = 2"),
                      std::string::npos);
        }
        spec.fleet.noiseAgents = 0;
        EXPECT_NO_THROW(spec.validate()) << field;
    }
}

TEST(ExperimentSpec, RateKeepsTheProtocolCounts)
{
    // A rate derives only ts, helper_gap and poll_interval; every
    // other protocol field stays as configured, and the interval is
    // sized for the configured counts.
    ExperimentSpec spec;
    spec.rateKbps = 500;
    ChannelParams &set = spec.channel.params;
    set.c1 = 9;
    set.c0 = 3;
    set.cb = 4;
    set.endN = 30;
    set.bandWiden = 40.0;
    set.gapClaim = 0.1;
    const ChannelParams p = spec.toChannelConfig().params;
    EXPECT_EQ(p.c1, 9);
    EXPECT_EQ(p.c0, 3);
    EXPECT_EQ(p.cb, 4);
    EXPECT_EQ(p.endN, 30);
    EXPECT_EQ(p.bandWiden, 40.0);
    EXPECT_EQ(p.gapClaim, 0.1);
    const TimingParams &t = spec.channel.system.timing;
    EXPECT_NEAR(p.nominalKbps(t), 500.0, 1.0);
    EXPECT_LT(p.ts, ChannelParams::forTargetKbps(500, t).ts);
}

TEST(ExperimentSpec, DerivesChannelConfigFromRate)
{
    ExperimentSpec spec;
    spec.rateKbps = 500;
    spec.payload.bits = 100;
    spec.timeoutMargin = 10.0;
    const ChannelConfig cfg = spec.toChannelConfig();
    const ChannelParams expect = ChannelParams::forTargetKbps(
        500, spec.channel.system.timing);
    EXPECT_EQ(cfg.params.ts, expect.ts);
    EXPECT_EQ(cfg.params.helperGap, expect.helperGap);
    EXPECT_EQ(cfg.timeout,
              cfg.deriveTimeout(100, 10.0));
    // The defence flag routes into the timing model downstream, not
    // in toChannelConfig (the experiment rig applies it).
    EXPECT_EQ(cfg.defense, Defense::none);
}

TEST(ExperimentSpec, MakesSeededOrTextPayloads)
{
    ExperimentSpec spec;
    EXPECT_EQ(spec.makePayload(),
              textToBits("COHERENCE STATES LEAK"));

    spec.payload.bits = 64;
    const BitString a = spec.makePayload();
    EXPECT_EQ(a.size(), 64u);
    EXPECT_EQ(a, spec.makePayload()) << "same seed, same payload";
    spec.channel.system.seed = 77;
    EXPECT_NE(a, spec.makePayload()) << "seed changes payload";
}

// --- grid expansion ---------------------------------------------------

TEST(GridExpansion, ScenarioMajorThenRateThenNoise)
{
    ExperimentSpec spec;
    spec.sweep.scenarios = "1,4";
    spec.sweep.fromKbps = 100;
    spec.sweep.toKbps = 300;
    spec.sweep.stepKbps = 100;
    spec.sweep.noiseLevels = "0,2";

    const GridAxes axes = sweepAxes(spec);
    EXPECT_EQ(axes.size(), 12u);
    const std::vector<ExperimentSpec> grid = expandGrid(spec);
    ASSERT_EQ(grid.size(), 12u);

    // Scenario-major, then rate, then noise.
    EXPECT_EQ(grid[0].channel.scenario, Scenario::lexcC_lshB);
    EXPECT_DOUBLE_EQ(grid[0].rateKbps, 100);
    EXPECT_EQ(grid[0].channel.noiseThreads, 0);
    EXPECT_EQ(grid[1].channel.noiseThreads, 2);
    EXPECT_DOUBLE_EQ(grid[2].rateKbps, 200);
    EXPECT_EQ(grid[6].channel.scenario, Scenario::rexcC_lshB);

    // Expanded points are plain single-experiment specs.
    for (const ExperimentSpec &p : grid) {
        EXPECT_TRUE(p.sweep.scenarios.empty());
        const std::vector<ExperimentSpec> again = expandGrid(p);
        ASSERT_EQ(again.size(), 1u);
        EXPECT_EQ(again[0].channel.scenario, p.channel.scenario);
    }
}

TEST(GridExpansion, EmptyAxesExpandToSelf)
{
    ExperimentSpec spec;
    spec.rateKbps = 250;
    spec.channel.noiseThreads = 4;
    const std::vector<ExperimentSpec> grid = expandGrid(spec);
    ASSERT_EQ(grid.size(), 1u);
    EXPECT_DOUBLE_EQ(grid[0].rateKbps, 250);
    EXPECT_EQ(grid[0].channel.noiseThreads, 4);
}

TEST(GridExpansion, AllScenariosKeyword)
{
    ExperimentSpec spec;
    spec.sweep.scenarios = "all";
    const GridAxes axes = sweepAxes(spec);
    EXPECT_EQ(axes.scenarios.size(), 6u);
}

TEST(GridExpansion, RejectsMalformedAxes)
{
    ExperimentSpec spec;
    spec.sweep.rates = "100,abc";
    EXPECT_THROW(sweepAxes(spec), ConfigError);

    spec = ExperimentSpec{};
    spec.sweep.fromKbps = 100;  // step missing
    EXPECT_THROW(sweepAxes(spec), ConfigError);

    spec = ExperimentSpec{};
    spec.sweep.fromKbps = 500;
    spec.sweep.toKbps = 100;
    spec.sweep.stepKbps = 100;
    EXPECT_THROW(sweepAxes(spec), ConfigError);

    // Each noise level must fit channel.noise_threads, and a fleet,
    // whose noise is fleet.noise_agents, takes no noise axis.
    spec = ExperimentSpec{};
    spec.sweep.noiseLevels = "0,100000";
    EXPECT_THROW(sweepAxes(spec), ConfigError);
    spec.sweep.noiseLevels = "0,4";
    spec.fleet.pairs = 4;
    EXPECT_THROW(sweepAxes(spec), ConfigError);
    spec.fleet.pairs = 1;
    EXPECT_NO_THROW(sweepAxes(spec));
}

// --- presets ----------------------------------------------------------

TEST(Presets, EveryPresetValidatesAndBuildsAMachine)
{
    for (const Preset &preset : allPresets()) {
        ConfigResolver res;
        ASSERT_NO_THROW(res.applyPreset(preset.name))
            << preset.name;
        ASSERT_NO_THROW(res.spec().validate()) << preset.name;
        // The resolved system must be buildable: constructing the
        // machine exercises topology, cache geometry and timing
        // validation (fatal_if on inconsistency).
        const Machine machine(res.spec().channel.system);
        EXPECT_GT(res.spec().channel.system.numCores(), 0)
            << preset.name;
    }
}

TEST(Presets, ScenarioPresetsFollowTableOrder)
{
    const std::vector<const Preset *> rows = scenarioPresets();
    ASSERT_EQ(rows.size(), 6u);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        ASSERT_NE(rows[i], nullptr);
        EXPECT_EQ(rows[i]->name, allScenarios()[i].notation);
        ExperimentSpec spec;
        applyPreset(spec, *rows[i]);
        EXPECT_EQ(spec.channel.scenario, allScenarios()[i].id);
    }
}

TEST(Presets, MitigationPresetsSetDefense)
{
    const std::vector<const Preset *> mitigations =
        presetsWithPrefix("mitigation-");
    ASSERT_EQ(mitigations.size(), 3u);
    const std::vector<Defense> expected = {
        Defense::targetedNoise, Defense::ksmGuard,
        Defense::llcNotify};
    for (std::size_t i = 0; i < mitigations.size(); ++i) {
        ExperimentSpec spec;
        applyPreset(spec, *mitigations[i]);
        EXPECT_EQ(spec.channel.defense, expected[i])
            << mitigations[i]->name;
        EXPECT_EQ(spec.channel.sharing, SharingMode::ksm)
            << mitigations[i]->name;
    }
}

TEST(FieldRegistry, PhyFieldsResolveWithDocsAndAliases)
{
    const FieldRegistry &reg = FieldRegistry::instance();
    // Every phy.* knob is registered with a non-empty doc line.
    for (const char *name :
         {"phy.profile", "phy.interleaver_depth",
          "phy.preamble_len", "phy.whiten", "phy.frame_nibbles"}) {
        const FieldDef *f = reg.find(name);
        ASSERT_NE(f, nullptr) << name;
        EXPECT_FALSE(std::string(f->doc).empty()) << name;
    }
    // The short aliases route to the same definitions.
    EXPECT_EQ(reg.find("profile"), reg.find("phy.profile"));
    // The adaptive controller is a profile value, not a flag.
    EXPECT_EQ(reg.find("phy.adaptive"), nullptr);
    EXPECT_EQ(reg.find("adaptive"), nullptr);

    ConfigResolver res;
    res.applyOverride("phy.profile", "hamming-soft", "cli");
    res.applyOverride("phy.interleaver_depth", "4", "cli");
    EXPECT_EQ(res.spec().channel.phy.profile,
              PhyProfile::hammingSoft);
    EXPECT_EQ(res.spec().channel.phy.interleaverDepth, 4);
    EXPECT_THROW(
        res.applyOverride("phy.profile", "turbo-code", "cli"),
        ConfigError);
    EXPECT_THROW(
        res.applyOverride("phy.interleaver_depth", "0", "cli"),
        ConfigError);
}

TEST(FieldRegistry, PhyTypoGetsDidYouMeanHint)
{
    ConfigResolver res;
    try {
        res.applyOverride("phy.profil", "hamming-soft", "cli");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("unknown config key 'phy.profil'"),
                  std::string::npos);
        EXPECT_NE(msg.find("phy.profile"), std::string::npos);
    }
}

TEST(Presets, PhyQuickSelectsTheSoftStack)
{
    const Preset *p = findPreset("phy-quick");
    ASSERT_NE(p, nullptr);
    ExperimentSpec spec;
    applyPreset(spec, *p);
    EXPECT_EQ(spec.channel.phy.profile, PhyProfile::hammingSoft);
    EXPECT_EQ(spec.channel.scenario, Scenario::rexcC_lshB);
    EXPECT_GT(spec.rateKbps, 0.0);
    EXPECT_GT(spec.payload.bits, 0);
}

TEST(Presets, ProtocolMatrixMatchesAblationBench)
{
    const std::vector<const Preset *> protos =
        presetsWithPrefix("proto-");
    ASSERT_EQ(protos.size(), 6u);
    EXPECT_EQ(protos[0]->name, "proto-mesi-dir");
    EXPECT_EQ(protos[5]->name, "proto-mesi-noninclusive");
    ExperimentSpec spec;
    applyPreset(spec, *protos[5]);
    EXPECT_EQ(spec.channel.system.inclusivity, Inclusivity::nine);
    EXPECT_EQ(spec.channel.system.flavor, CoherenceFlavor::mesi);
}

TEST(Presets, PresetTransmissionMatchesManualSetup)
{
    // The acceptance property behind the examples/ configs: running
    // from a scenario preset is bit-for-bit the run the hand-built
    // config produces.
    ExperimentSpec preset_spec;
    preset_spec.channel.system.seed = 2018;
    applyPreset(preset_spec, *findPreset("RExclc-LExclb"));
    preset_spec.payload.bits = 24;

    ExperimentSpec manual = preset_spec;
    manual.channel.scenario = Scenario::rexcC_lexB;

    const ChannelReport a = runTransmission(
        preset_spec.toChannelConfig(), preset_spec.makePayload());
    const ChannelReport b = runTransmission(
        manual.toChannelConfig(), manual.makePayload());
    EXPECT_EQ(a.received, b.received);
    EXPECT_EQ(a.metrics.durationCycles, b.metrics.durationCycles);
}

} // namespace
} // namespace csim
