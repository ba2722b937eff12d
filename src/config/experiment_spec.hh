/**
 * @file
 * The declarative experiment specification: one value that composes
 * the simulated machine (`SystemConfig`), the covert-channel setup
 * (`ChannelConfig`, `ChannelParams`, `NoiseConfig`), the payload and
 * the sweep grid. Every scenario the CLI and the sweep benches run is
 * an `ExperimentSpec`, so "add a scenario" is a data change (a JSON
 * file or a preset entry), not a C++ change.
 *
 * The companion pieces live next door:
 *  - field_registry.hh — reflection-style field table (name, type,
 *    default, range, doc) driving validation and (de)serialization;
 *  - presets.hh        — named presets (Table I scenarios, §VIII-E
 *    mitigations, the protocol-flavor matrix, bench sweep grids);
 *  - resolver.hh       — layered resolution with provenance
 *    (defaults → preset → config file → CLI overrides).
 */

#ifndef COHERSIM_CONFIG_EXPERIMENT_SPEC_HH
#define COHERSIM_CONFIG_EXPERIMENT_SPEC_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "channel/channel.hh"
#include "common/bit_string.hh"
#include "common/parse.hh"
#include "obs/obs_config.hh"

namespace csim
{

/** What the trojan transmits. */
struct PayloadSpec
{
    /** Text payload (used when bits == 0). */
    std::string message = "COHERENCE STATES LEAK";
    /** When > 0: a seeded random payload of this many bits. */
    long bits = 0;
};

/**
 * Sweep-grid axes. An axis left empty contributes the spec's scalar
 * value as a single grid point, so a spec with no sweep settings
 * expands to exactly itself.
 */
struct SweepSpec
{
    /** @name Rate axis: arithmetic progression, in Kbps */
    /** @{ */
    double fromKbps = 0.0;
    double toKbps = 0.0;
    double stepKbps = 0.0;
    /** @} */
    /** Explicit rate list (CSV, Kbps); overrides from/to/step. */
    std::string rates;
    /** Scenario list: CSV of Table I notations or rows, or "all". */
    std::string scenarios;
    /** Noise-thread list (CSV of counts). */
    std::string noiseLevels;
};

/** Multi-tenant fleet axes (`fleet.*` config fields). */
struct FleetSpec
{
    /** Concurrent trojan/spy pairs on one machine. */
    long pairs = 1;
    /** Fleet-wide co-tenant noise agents. */
    long noiseAgents = 0;
    /**
     * Start-offset spacing between consecutive pairs, cycles. Real
     * tenants do not start in lockstep, and a common start would
     * synchronize every pair's sync phase into one burst.
     */
    long staggerCycles = 200'000;
    /**
     * CSV of Table I notations/row numbers, cycled over the pairs;
     * empty runs every pair in channel.scenario.
     */
    std::string scenarioMix;

    /**
     * Does the spec run as a fleet? More than one pair, or noise
     * agents around even one pair (a single-pair run's noise is
     * channel.noise_threads).
     */
    bool
    enabled() const
    {
        return pairs > 1 || noiseAgents > 0;
    }

    /**
     * The scenario mix parsed into Scenario ids; empty when unset.
     * Throws ConfigError on an entry that is not a Table I notation
     * or row number.
     */
    std::vector<Scenario> scenarios() const;
};

/** The complete declarative description of one experiment (family). */
struct ExperimentSpec
{
    /** Machine + channel knobs; `system` lives inside. */
    ChannelConfig channel;
    /**
     * Target raw rate in Kbps; > 0 derives the spy/trojan intervals
     * via ChannelParams::forTargetKbps (overriding channel.ts,
     * helper_gap and poll_interval), 0 uses them as configured.
     */
    double rateKbps = 0.0;
    /**
     * When > 0, the safety timeout is derived from the payload
     * length with this margin (ChannelConfig::deriveTimeout)
     * instead of taken from channel.timeout.
     */
    double timeoutMargin = 0.0;
    PayloadSpec payload;
    SweepSpec sweep;
    /** Multi-tenant fleet axes (`cohersim transmit` fleet path). */
    FleetSpec fleet;
    /** Run-health observability knobs (`cohersim report`). */
    ObsConfig obs;

    /** Number of payload bits this spec transmits. */
    std::size_t payloadBits() const;

    /**
     * Materialize the payload: the seeded random bits (seed + 1,
     * matching the CLI's historical behaviour) or the text message.
     */
    BitString makePayload() const;

    /**
     * Resolve the runnable per-experiment configuration: derive
     * params from rateKbps and the timeout from the payload when a
     * margin is set. The defence stays a field: the machine rig
     * applies llc-notify to the timing model. A fleet runs every
     * pair on this configuration.
     */
    ChannelConfig toChannelConfig() const;

    /**
     * Check every registry field against its valid range plus the
     * cross-field constraints (c0 < c1, well-formed sweep axes).
     * Throws ConfigError naming the offending key and value.
     */
    void validate() const;
};

/** The expanded axes of a spec's sweep grid. */
struct GridAxes
{
    std::vector<Scenario> scenarios;
    std::vector<double> rates;
    std::vector<int> noiseLevels;

    std::size_t
    size() const
    {
        return scenarios.size() * rates.size() * noiseLevels.size();
    }
};

/**
 * Parse the sweep axes of @p spec (each axis falls back to the
 * scalar field when unset). Throws ConfigError on malformed lists.
 */
GridAxes sweepAxes(const ExperimentSpec &spec);

/**
 * Expand a spec into one spec per grid point, scenario-major, then
 * rate, then noise level — the iteration order every sweep bench
 * uses. The returned specs have their sweep axes cleared, so they
 * are plain single-experiment specs (and expandGrid is idempotent).
 */
std::vector<ExperimentSpec> expandGrid(const ExperimentSpec &spec);

} // namespace csim

#endif // COHERSIM_CONFIG_EXPERIMENT_SPEC_HH
