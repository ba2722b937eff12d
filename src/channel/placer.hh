/**
 * @file
 * Trojan-side coherence state placement (paper §VI, Figures 3-5).
 *
 * The trojan spawns loader (helper) threads on cores of both sockets.
 * To hold block B in a (location, state) combination, the controller
 * activates one or two loaders on the relevant socket; each active
 * loader re-issues loads to B in a tight loop so the state is
 * re-established after every flush the spy performs:
 *   - one loader  -> block settles in E state on that loader's socket
 *   - two loaders -> block settles in S state on that socket
 */

#ifndef COHERSIM_CHANNEL_PLACER_HH
#define COHERSIM_CHANNEL_PLACER_HH

#include <cstdint>
#include <vector>

#include "channel/combo.hh"
#include "channel/protocol.hh"
#include "common/types.hh"
#include "os/kernel.hh"
#include "sim/task.hh"
#include "sim/thread_api.hh"

namespace csim
{

/** Shared control word between controller and one loader thread. */
struct HelperCtl
{
    enum class Mode : std::uint8_t
    {
        idle,      //!< park, touching nothing
        maintain,  //!< re-load the target line in a loop
        stop,      //!< terminate the loader coroutine
    };

    Mode mode = Mode::idle;
    VAddr addr = 0;
};

/** Loader-thread coroutine body. */
Task placerHelperBody(ThreadApi api, HelperCtl *ctl, Tick gap,
                      Tick poll);

/**
 * The trojan's crew of loader threads plus the controls to point them
 * at a combination pair.
 */
class PlacerCrew
{
  public:
    /**
     * Spawn loader threads.
     *
     * @param kernel the OS.
     * @param sched the engine.
     * @param proc trojan process the loaders belong to.
     * @param local_cores spy-socket cores for local loaders.
     * @param remote_cores other-socket cores for remote loaders.
     * @param params protocol timing (gap/poll intervals).
     */
    PlacerCrew(Kernel &kernel, Scheduler &sched, Process &proc,
               const std::vector<CoreId> &local_cores,
               const std::vector<CoreId> &remote_cores,
               const ChannelParams &params);

    ~PlacerCrew();
    PlacerCrew(const PlacerCrew &) = delete;
    PlacerCrew &operator=(const PlacerCrew &) = delete;

    /**
     * Point the crew at a combination: the loaders the combo needs
     * switch to maintain mode, all others go idle. Takes effect as
     * loaders next poll their control words. Every mode writer
     * unparks each loader whose mode it changes, so an idle loader
     * sees the write at the poll it would have seen it spinning.
     */
    void activate(Combo c, VAddr addr);

    /** All loaders idle (trojan goes quiet). */
    void idle();

    /** Terminate all loader coroutines. */
    void stopAll();

    int localCount() const { return static_cast<int>(nLocal_); }
    int remoteCount() const
    {
        return static_cast<int>(ctls_.size() - nLocal_);
    }

  private:
    /** Set loader @p i's mode, waking it if that changes it. */
    void setMode(std::size_t i, HelperCtl::Mode mode);

    Scheduler &sched_;
    // Control words are heap-stable: loader coroutines hold pointers.
    std::vector<std::unique_ptr<HelperCtl>> ctls_;
    /** Loader thread of each control word. */
    std::vector<SimThread *> loaders_;
    std::size_t nLocal_;
};

} // namespace csim

#endif // COHERSIM_CHANNEL_PLACER_HH
