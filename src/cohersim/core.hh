/**
 * @file
 * Core layer facade: the simulated machine itself.
 *
 * Everything needed to build and drive a coherent machine — the
 * utility layer, the coroutine execution engine, the coherent memory
 * hierarchy with its inspection API, the OS substrate and the
 * virtual-time tracing/counter subsystem. Downstream users that only
 * simulate (no covert channel, no host-parallel sweeps) include this
 * and nothing else.
 *
 * Layering (strict): common <- sim <- mem <- os, with trace
 * observing every layer. The attack layer (`cohersim/attack.hh`) and
 * the harness layer (`cohersim/harness.hh`) build on top; the
 * `cohersim.hh` umbrella includes all three.
 */

#ifndef COHERSIM_COHERSIM_CORE_HH
#define COHERSIM_COHERSIM_CORE_HH

// Utilities.
#include "common/bit_string.hh"
#include "common/edit_distance.hh"
#include "common/line_map.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/table_printer.hh"
#include "common/types.hh"

// Execution engine.
#include "sim/memory_backend.hh"
#include "sim/scheduler.hh"
#include "sim/task.hh"
#include "sim/thread.hh"
#include "sim/thread_api.hh"

// Coherent memory hierarchy.
#include "mem/cache.hh"
#include "mem/memory_system.hh"
#include "mem/params.hh"

// Operating system substrate.
#include "os/kernel.hh"
#include "os/ksm.hh"
#include "os/ksm_guard.hh"
#include "os/phys_mem.hh"
#include "os/process.hh"

// Tracing & counters.
#include "trace/bus.hh"
#include "trace/counters.hh"
#include "trace/event.hh"
#include "trace/perfetto.hh"
#include "trace/recorder.hh"

#endif // COHERSIM_COHERSIM_CORE_HH
