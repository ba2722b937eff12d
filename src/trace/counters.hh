/**
 * @file
 * Named counter registry and machine-wide counter collection.
 *
 * Counters are the aggregate face of the tracing subsystem: the same
 * virtual-time activity the event stream records, summed into stable
 * named totals that drop into the BENCH_*.json sink. Registration
 * order is preserved so dumps diff cleanly, and collection only reads
 * simulator stats — totals are bit-identical for any host --jobs
 * split as long as per-machine registries are merged in submission
 * order.
 */

#ifndef COHERSIM_TRACE_COUNTERS_HH
#define COHERSIM_TRACE_COUNTERS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace csim
{

class Json;
struct Machine;
class TraceRecorder;

/**
 * Insertion-ordered map of named uint64 counters. Lookups scan the
 * entries: a registry holds a few dozen counters, and every result
 * keeps its own copy, so a hash index would cost each copy more memory
 * than the scan costs time.
 */
class CounterRegistry
{
  public:
    /** Reference to a counter, creating it at zero on first use. */
    std::uint64_t &counter(const std::string &name);

    /** Current value; 0 for unknown names. */
    std::uint64_t value(const std::string &name) const;

    /** Add @p delta to a counter (creating it if needed). */
    void
    add(const std::string &name, std::uint64_t delta)
    {
        counter(name) += delta;
    }

    /** Merge another registry into this one (summing values). */
    void merge(const CounterRegistry &other);

    /** All counters, in registration order. */
    const std::vector<std::pair<std::string, std::uint64_t>> &
    entries() const
    {
        return entries_;
    }

    std::size_t size() const { return entries_.size(); }

    /** One flat JSON object, registration order preserved. */
    Json toJson() const;

  private:
    std::vector<std::pair<std::string, std::uint64_t>> entries_;
};

/**
 * Snapshot every subsystem counter of @p machine into a registry:
 * memory hierarchy, coherence activity, OS/KSM and, when given, the
 * recorder's capture/drop totals.
 */
CounterRegistry collectCounters(const Machine &machine,
                                const TraceRecorder *recorder = nullptr);

} // namespace csim

#endif // COHERSIM_TRACE_COUNTERS_HH
