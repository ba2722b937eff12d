/**
 * @file
 * Run-health monitor: one TraceBus subscriber that turns a
 * transmission's event stream into actionable telemetry.
 *
 * Three views of the same stream (paper framing in parentheses):
 *  - per-(location, coherence-state) latency histograms, checking
 *    the Fig. 2 band-separation premise continuously instead of only
 *    at calibration time;
 *  - a windowed timeseries of channel activity vs. disturbances
 *    (the when of Fig. 9's noise degradation);
 *  - an error budget attributing each decode error to its most
 *    plausible cause (the why; see obs/attribution.hh).
 *
 * The monitor subscribes directly to the bus and keeps no event
 * buffer of its own. All aggregation is integer arithmetic and
 * RunHealth::merge is order-preserving, keeping sweep reports
 * bit-identical at any host --jobs split.
 */

#ifndef COHERSIM_OBS_HEALTH_HH
#define COHERSIM_OBS_HEALTH_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "channel/calibration.hh"
#include "channel/combo.hh"
#include "obs/attribution.hh"
#include "obs/histogram.hh"
#include "obs/obs_config.hh"
#include "obs/timeseries.hh"
#include "trace/event.hh"
#include "trace/tap.hh"

namespace csim
{

/** Histogram slots: the four Fig. 2 combos plus the DRAM band. */
inline constexpr std::size_t numBandSlots = numCombos + 1;
inline constexpr std::size_t dramBandSlot = numCombos;

/** Printable band name ("LShared" ... "DRAM"). */
const char *bandSlotName(std::size_t slot);

/** Latency statistics of one (location, coherence-state) band. */
struct BandStats
{
    explicit BandStats(int sub_bits = 5) : hist(sub_bits) {}

    LogHistogram hist;
    /** Samples outside the calibrated band (drift evidence). */
    std::uint64_t outside = 0;
    /** Calibrated reference interval, when one was provided. */
    bool hasBand = false;
    double bandLo = 0.0;
    double bandHi = 0.0;

    void merge(const BandStats &other);
};

/** The complete, mergeable health record of one or more runs. */
struct RunHealth
{
    explicit RunHealth(const ObsConfig &cfg = {});

    ObsConfig config;
    std::vector<BandStats> bands;  //!< numBandSlots entries
    WindowedTimeseries series;
    ErrorBudget budget;
    /** Per-error detail, in per-run alignment order. */
    std::vector<AttributedError> errors;

    /** Fold another record in (submission order ⇒ deterministic). */
    void merge(const RunHealth &other);
};

/** The streaming bus subscriber producing a RunHealth. */
class RunHealthMonitor : public BusTap
{
  public:
    explicit RunHealthMonitor(const ObsConfig &cfg = {});
    ~RunHealthMonitor() override;

    RunHealthMonitor(const RunHealthMonitor &) = delete;
    RunHealthMonitor &operator=(const RunHealthMonitor &) = delete;

    /**
     * Provide the calibrated reference bands; per-band drift (the
     * `outside` counts) is only tracked when set.
     */
    void setBands(const CalibrationResult &cal);

    /**
     * Provide the reference band for one slot only. The
     * non-coherence leakage vectors calibrate two symbol bands
     * instead of the Fig. 2 combo set, and typically only one of
     * them is machine-visible as a load latency (see
     * obs/vector_bands.hh, which drives this).
     */
    void setBand(std::size_t slot, double lo, double hi);

    void attach(TraceBus &bus, int num_cores) override;
    void detach() override;

    /** Feed one event (the bus handler; also offline replay). */
    void observe(const TraceEvent &ev);

    /**
     * Align the observed tx/rx bit streams, attribute the errors and
     * return the finished record. Call once, after the run.
     */
    RunHealth finalize();

  private:
    ObsConfig cfg_;
    RunHealth health_;
    TraceBus *bus_ = nullptr;
    int subId_ = 0;
    PAddr sharedPage_ = 0;
    std::vector<BitObs> tx_;
    std::vector<BitObs> rx_;
    std::vector<CauseEvent> causes_;
};

/**
 * Most timeseries windows an offline replay builds: about 100 MB of
 * WindowCounters. A saved trace's `cycles` are outside input, so one
 * event far in the future must not size the series.
 */
inline constexpr std::uint64_t maxReplayWindows = std::uint64_t{1} << 20;

/**
 * Offline analysis of a saved trace (`cohersim report --trace`):
 * replay @p events through a monitor and finalize. No calibration is
 * available in a trace file, so drift counts stay zero; the
 * histograms, timeseries and error budget are complete as long as
 * the capture recorded the mem/coherence/os/channel categories.
 * fatal() if the events span more than maxReplayWindows windows of
 * @p cfg's size.
 */
RunHealth analyzeTrace(const std::vector<TraceEvent> &events,
                       const ObsConfig &cfg = {});

} // namespace csim

#endif // COHERSIM_OBS_HEALTH_HH
