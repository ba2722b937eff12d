/**
 * @file
 * Bus tap: the minimal attach/detach contract shared by everything
 * that subscribes to a machine's TraceBus for the duration of one
 * experiment.
 *
 * The channel layer (MachineRig) owns the machine whose bus the
 * subscribers need, but must not depend on what the subscribers do
 * with the stream — the TraceRecorder captures it, the run-health
 * monitor (src/obs) aggregates it, tests probe it. BusTap is that
 * seam: the rig attaches every tap before shared-memory
 * establishment and detaches them when the machine dies, and each
 * tap keeps its accumulated state afterwards.
 */

#ifndef COHERSIM_TRACE_TAP_HH
#define COHERSIM_TRACE_TAP_HH

namespace csim
{

class TraceBus;

/** Something that subscribes to a machine's trace bus for one run. */
class BusTap
{
  public:
    virtual ~BusTap() = default;

    /**
     * Subscribe to @p bus, which carries events from @p num_cores
     * cores. Implementations detach from any previous bus first.
     */
    virtual void attach(TraceBus &bus, int num_cores) = 0;

    /** Unsubscribe; accumulated state stays readable. */
    virtual void detach() = 0;
};

} // namespace csim

#endif // COHERSIM_TRACE_TAP_HH
