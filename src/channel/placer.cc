#include "channel/placer.hh"

#include "common/logging.hh"
#include "sim/scheduler.hh"

namespace csim
{

Task
placerHelperBody(ThreadApi api, HelperCtl *ctl, Tick gap, Tick poll)
{
    for (;;) {
        switch (ctl->mode) {
          case HelperCtl::Mode::stop:
            co_return;
          case HelperCtl::Mode::maintain:
            co_await api.load(ctl->addr);
            co_await api.spin(gap);
            break;
          case HelperCtl::Mode::idle:
            co_await api.park(poll);
            break;
        }
    }
}

PlacerCrew::PlacerCrew(Kernel &kernel, Scheduler &sched, Process &proc,
                       const std::vector<CoreId> &local_cores,
                       const std::vector<CoreId> &remote_cores,
                       const ChannelParams &params)
    : sched_(sched), nLocal_(local_cores.size())
{
    fatal_if(local_cores.size() > 2 || remote_cores.size() > 2,
             "a combo never needs more than two loaders per socket");
    auto spawn_one = [&](CoreId core, const std::string &name) {
        ctls_.push_back(std::make_unique<HelperCtl>());
        HelperCtl *ctl = ctls_.back().get();
        loaders_.push_back(kernel.spawnThread(
            sched, name, core, proc, [ctl, &params](ThreadApi api) {
                return placerHelperBody(api, ctl, params.helperGap,
                                        params.pollInterval);
            }));
    };
    for (std::size_t i = 0; i < local_cores.size(); ++i)
        spawn_one(local_cores[i],
                  "trojan.loaderL" + std::to_string(i));
    for (std::size_t i = 0; i < remote_cores.size(); ++i)
        spawn_one(remote_cores[i],
                  "trojan.loaderR" + std::to_string(i));
}

PlacerCrew::~PlacerCrew()
{
    stopAll();
}

void
PlacerCrew::activate(Combo c, VAddr addr)
{
    const int want_local = comboLocalLoaders(c);
    const int want_remote = comboRemoteLoaders(c);
    panic_if(want_local > localCount(),
             "combo ", comboName(c), " needs ", want_local,
             " local loaders, crew has ", localCount());
    panic_if(want_remote > remoteCount(),
             "combo ", comboName(c), " needs ", want_remote,
             " remote loaders, crew has ", remoteCount());
    for (std::size_t i = 0; i < ctls_.size(); ++i) {
        const bool is_local = i < nLocal_;
        const int rank =
            static_cast<int>(is_local ? i : i - nLocal_);
        const bool active =
            rank < (is_local ? want_local : want_remote);
        HelperCtl &ctl = *ctls_[i];
        if (active) {
            ctl.addr = addr;
            setMode(i, HelperCtl::Mode::maintain);
        } else if (ctl.mode != HelperCtl::Mode::stop) {
            setMode(i, HelperCtl::Mode::idle);
        }
    }
}

void
PlacerCrew::idle()
{
    for (std::size_t i = 0; i < ctls_.size(); ++i) {
        if (ctls_[i]->mode != HelperCtl::Mode::stop)
            setMode(i, HelperCtl::Mode::idle);
    }
}

void
PlacerCrew::stopAll()
{
    for (std::size_t i = 0; i < ctls_.size(); ++i)
        setMode(i, HelperCtl::Mode::stop);
}

void
PlacerCrew::setMode(std::size_t i, HelperCtl::Mode mode)
{
    if (ctls_[i]->mode == mode)
        return;
    ctls_[i]->mode = mode;
    sched_.unpark(*loaders_[i]);
}

} // namespace csim
