/**
 * @file
 * Harness layer facade: running experiments at scale.
 *
 * The host-parallel sweep runner, the JSON result sink and the
 * declarative experiment-config subsystem (specs, field registry,
 * presets, resolver). Depends only on the utility layer — the harness
 * drives whatever the job closures capture, it does not itself depend
 * on the machine or the channel. Benches that both build channels and
 * sweep them include `cohersim/attack.hh` alongside this facade.
 */

#ifndef COHERSIM_COHERSIM_HARNESS_HH
#define COHERSIM_COHERSIM_HARNESS_HH

// Utilities (the only layer the harness builds on).
#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/table_printer.hh"
#include "common/types.hh"

// Host-parallel experiment runner.
#include "runner/json_sink.hh"
#include "runner/runner.hh"

// Declarative experiment configuration.
#include "config/experiment_spec.hh"
#include "config/field_registry.hh"
#include "config/presets.hh"
#include "config/resolver.hh"

#endif // COHERSIM_COHERSIM_HARNESS_HH
