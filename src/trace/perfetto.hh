/**
 * @file
 * Chrome/Perfetto trace-event JSON exporter.
 *
 * Emits the legacy "traceEvents" JSON format that both chrome://
 * tracing and ui.perfetto.dev load directly. Virtual cycles are
 * mapped to microseconds at the machine's reference clock, sockets
 * become processes and cores become threads, so a covert-channel run
 * renders as per-core instant-event lanes on a shared virtual
 * timeline.
 */

#ifndef COHERSIM_TRACE_PERFETTO_HH
#define COHERSIM_TRACE_PERFETTO_HH

#include <string>
#include <vector>

#include "mem/params.hh"
#include "runner/json_sink.hh"
#include "trace/event.hh"

namespace csim
{

/**
 * Build the full trace-event JSON document for @p events.
 * @p config supplies the clock (for the cycle->µs mapping) and the
 * socket topology (for process/thread grouping).
 */
Json perfettoTraceJson(const std::vector<TraceEvent> &events,
                       const SystemConfig &config);

/** Serialize perfettoTraceJson() to @p path. fatal()s on IO errors. */
void writePerfettoTrace(const std::string &path,
                        const std::vector<TraceEvent> &events,
                        const SystemConfig &config);

/**
 * Load a trace written by writePerfettoTrace() back into typed
 * events, reversing the socket/core <-> pid/tid mapping and reading
 * the exact virtual timestamps from the args.cycles field (the µs
 * "ts" is lossy). Metadata events and event names that are not part
 * of the vocabulary are skipped, and so is any otherData block.
 * fatal()s, naming @p path and the event's index, when the file is
 * unreadable, not a trace-event document, or an event carries a
 * non-integer "tid", "cycles", "a", "b" or "pair", or negative
 * "cycles". ("a" and "b" carry uint64 payloads, so they may read
 * back negative.)
 */
std::vector<TraceEvent> readPerfettoTrace(const std::string &path);

} // namespace csim

#endif // COHERSIM_TRACE_PERFETTO_HH
