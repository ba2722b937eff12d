#include "mem/memory_system.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "common/logging.hh"

namespace csim
{

MemorySystem::MemorySystem(const SystemConfig &config)
    : config_(config), rng_(config.seed * 0x51f3c9a7b2d1e045ULL + 11)
{
    config_.validate();
    const int cores = config_.numCores();
    l1s_.reserve(cores);
    l2s_.reserve(cores);
    for (int c = 0; c < cores; ++c) {
        l1s_.push_back(std::make_unique<Cache>(
            "L1.c" + std::to_string(c), config_.l1,
            config_.replacement, deriveSeed(config_.seed, 1000 + c)));
        l2s_.push_back(std::make_unique<Cache>(
            "L2.c" + std::to_string(c), config_.l2,
            config_.replacement, deriveSeed(config_.seed, 2000 + c)));
    }
    sockets_.resize(static_cast<std::size_t>(config_.sockets));
    if (!config_.llcInclusive())
        snoopFilter_.resize(
            static_cast<std::size_t>(config_.sockets));
    if (config_.llcIndex == IndexFn::remap)
        remapCountdown_ = config_.remapPeriod;
    for (int s = 0; s < config_.sockets; ++s) {
        // MIRAGE pairs its keyed random placement with a random
        // within-set victim; the other modes keep the configured
        // policy at the LLC too.
        const ReplPolicy llc_policy =
            config_.llcIndex == IndexFn::mirage ? ReplPolicy::random
                                                : config_.replacement;
        std::unique_ptr<IndexFunction> index;
        if (config_.llcIndex != IndexFn::linear) {
            index = std::make_unique<IndexFunction>(
                config_.llcIndex, config_.llc.numSets(),
                deriveSeed(config_.seed, 4000 + s));
        }
        sockets_[static_cast<std::size_t>(s)].llc =
            std::make_unique<Cache>("LLC.s" + std::to_string(s),
                                    config_.llc, llc_policy,
                                    deriveSeed(config_.seed, 3000 + s),
                                    std::move(index));
        sockets_[static_cast<std::size_t>(s)].llcPort.tag =
            TraceEventType::linkLlc;
    }
    qpi_.tag = TraceEventType::linkQpi;
    dram_.tag = TraceEventType::linkDram;
}

CoreId
MemorySystem::coreFromBit(SocketId socket, std::uint32_t bits) const
{
    panic_if(std::popcount(bits) != 1,
             "coreFromBit expects exactly one bit, got ", bits);
    const int local = std::countr_zero(bits);
    return config_.coreOf(socket, local);
}

double
MemorySystem::Resource::utilAt(Tick now, double tau) const
{
    if (now <= lastNoteAt)
        return util;
    const double gap = static_cast<double>(now - lastNoteAt);
    return util * std::exp(-gap / tau);
}

Tick
MemorySystem::occupy(Resource &res, Tick when, Tick service)
{
    const Tick begin = std::max(res.busyUntil, when);
    const Tick wait = begin - when;
    res.busyUntil = begin + service;
    stats_.queueWaitCycles += wait;
    // Update the utilization meter and accumulate the path total for
    // this access's interference delay.
    const double tau = config_.timing.contentionTau;
    res.util = res.utilAt(when, tau) +
               static_cast<double>(service) / tau;
    res.util = std::min(res.util, 1.5);
    res.lastNoteAt = std::max(res.lastNoteAt, when);
    pathUtil_ += res.util;
    if (trace_.enabled(TraceCategory::link)) {
        trace_.publish(TraceEvent{res.tag, TraceCategory::link,
                                  invalidCore, when, 0, wait,
                                  service});
    }
    return wait;
}

Tick
MemorySystem::contentionDelay(double util)
{
    const TimingParams &t = config_.timing;
    if (util < 0.04 || t.contentionMean <= 0.0)
        return 0;
    const double d = rng_.gaussian(util * t.contentionMean,
                                   util * t.contentionSd);
    return d > 0.0 ? static_cast<Tick>(d) : 0;
}

Tick
MemorySystem::jitter()
{
    const TimingParams &t = config_.timing;
    // Degenerate noise model: nothing to draw. Taken only by "quiet"
    // configs (unit tests, micro-benchmarks); any config with noise
    // enabled keeps drawing from the RNG exactly as before, so
    // seeded experiment outputs are unchanged bit for bit.
    if (t.jitterSd == 0.0 && t.longTailProb <= 0.0)
        return 0;
    double j = rng_.gaussian(0.0, t.jitterSd);
    // Latency can come in slightly under the mean but never collapse.
    j = std::max(j, -2.5 * t.jitterSd);
    Tick extra = 0;
    if (t.longTailProb > 0.0 && rng_.chance(t.longTailProb)) {
        extra = static_cast<Tick>(
            rng_.range(static_cast<std::int64_t>(t.longTailMin),
                       static_cast<std::int64_t>(t.longTailMax)));
    }
    const auto base = static_cast<std::int64_t>(j);
    return static_cast<Tick>(std::max<std::int64_t>(
               base + static_cast<std::int64_t>(extra), 0));
}

LineSnapshot
MemorySystem::inspect(PAddr addr) const
{
    const PAddr line = lineAlign(addr);
    LineSnapshot snap;
    snap.line = line;
    snap.presence = globalDir_.lookup(line);
    const int cores = config_.numCores();
    snap.priv.resize(static_cast<std::size_t>(cores));
    for (int c = 0; c < cores; ++c)
        snap.priv[static_cast<std::size_t>(c)] = privState(c, line);
    snap.sockets.resize(static_cast<std::size_t>(config_.sockets));
    for (int s = 0; s < config_.sockets; ++s) {
        LineSnapshot::SocketView &v =
            snap.sockets[static_cast<std::size_t>(s)];
        const Cache &llc =
            *sockets_[static_cast<std::size_t>(s)].llc;
        if (const CacheLine *L = llc.find(line)) {
            v.llcHas = true;
            v.coreValid = L->coreValid;
            v.dirty = L->dirty;
            v.ownerModified = L->ownerModified;
        }
        v.residency = residencyBits(s, line);
    }
    return snap;
}

void
MemorySystem::rekeyNow(Tick when)
{
    for (int s = 0; s < config_.sockets; ++s) {
        Cache &llc = *sockets_[static_cast<std::size_t>(s)].llc;
        // Snapshot first: eviction handling may itself install lines
        // (exclusive-mode victim fills never happen here, but the
        // iteration must not observe its own mutations).
        rekeyResident_.clear();
        llc.forEachLine([this](const CacheLine &line) {
            rekeyResident_.push_back(line);
        });
        for (const CacheLine &line : rekeyResident_) {
            llc.invalidate(line.addr);
            handleLlcVictim(s, line, when);
        }
        llc.indexFunction()->rekey(rng_.next());
    }
}

std::string
MemorySystem::checkInvariants() const
{
    std::ostringstream err;
    const int cores = config_.numCores();

    // 1. L1 content must mirror L2 (L2 inclusive of L1, same state).
    for (int c = 0; c < cores; ++c) {
        std::string bad;
        l1s_[static_cast<std::size_t>(c)]->forEachLine(
            [&](const CacheLine &line) {
                const CacheLine *in_l2 =
                    l2s_[static_cast<std::size_t>(c)]->find(line.addr);
                if (!in_l2) {
                    bad = msgCat("L1.c", c, " line ", line.addr,
                                 " missing from L2");
                } else if (in_l2->state != line.state) {
                    bad = msgCat("L1.c", c, " line ", line.addr,
                                 " state ", mesiName(line.state),
                                 " != L2 state ",
                                 mesiName(in_l2->state));
                }
            });
        if (!bad.empty())
            return bad;
    }

    // 2. Private residency must match the directory's view. With an
    //    inclusive LLC that view is the LLC lines' core-valid bits
    //    (and private lines must be present in the LLC); with a
    //    non-inclusive LLC it is the snoop filter.
    if (!config_.llcInclusive()) {
        for (int s = 0; s < config_.sockets; ++s) {
            std::unordered_map<PAddr, std::uint32_t> actual;
            for (int i = 0; i < config_.coresPerSocket; ++i) {
                const CoreId core = config_.coreOf(s, i);
                l2s_[static_cast<std::size_t>(core)]->forEachLine(
                    [&](const CacheLine &line) {
                        actual[line.addr] |= 1u << i;
                    });
            }
            const LineMap &dir =
                snoopFilter_[static_cast<std::size_t>(s)];
            for (const auto &[addr, bits] : actual) {
                if (dir.lookup(addr) != bits) {
                    return msgCat("socket ", s, " line ", addr,
                                  " snoop filter ", dir.lookup(addr),
                                  " != actual residency ", bits);
                }
            }
            std::string bad;
            dir.forEach([&](PAddr addr, std::uint32_t bits) {
                if (!bad.empty())
                    return;
                const auto it = actual.find(addr);
                if (it == actual.end() || it->second != bits) {
                    bad = msgCat("socket ", s,
                                 " snoop filter line ", addr,
                                 " bits ", bits,
                                 " != actual residency ",
                                 it == actual.end() ? 0u
                                                    : it->second);
                }
            });
            if (!bad.empty())
                return bad;
            // The global directory must cover every present line.
            auto present = [&](PAddr addr) {
                return (globalDir_.lookup(addr) & (1u << s)) != 0;
            };
            dir.forEach([&](PAddr addr, std::uint32_t) {
                if (bad.empty() && !present(addr)) {
                    bad = msgCat("socket ", s, " line ", addr,
                                 " resident but absent from the "
                                 "global directory");
                }
            });
            if (!bad.empty())
                return bad;
            sockets_[static_cast<std::size_t>(s)]
                .llc->forEachLine([&](const CacheLine &line) {
                    if (bad.empty() && !present(line.addr)) {
                        bad = msgCat("socket ", s, " LLC line ",
                                     line.addr,
                                     " cached but absent from the "
                                     "global directory");
                    }
                });
            if (!bad.empty())
                return bad;
        }
    }

    // 2b. Exclusive LLC: a line is never simultaneously valid in a
    //     socket's LLC and in one of that socket's private caches.
    if (config_.llcExclusive()) {
        for (int s = 0; s < config_.sockets; ++s) {
            std::string bad;
            sockets_[static_cast<std::size_t>(s)]
                .llc->forEachLine([&](const CacheLine &line) {
                    if (bad.empty() &&
                        residencyBits(s, line.addr) != 0) {
                        bad = msgCat("socket ", s, " line ",
                                     line.addr,
                                     " valid in the exclusive LLC "
                                     "and in a private cache");
                    }
                });
            if (!bad.empty())
                return bad;
        }
    }
    for (int s = 0; config_.llcInclusive() && s < config_.sockets;
         ++s) {
        const Cache &llc = *sockets_[static_cast<std::size_t>(s)].llc;
        // Gather actual residency per line from L2s of this socket.
        std::unordered_map<PAddr, std::uint32_t> actual;
        for (int i = 0; i < config_.coresPerSocket; ++i) {
            const CoreId core = config_.coreOf(s, i);
            l2s_[static_cast<std::size_t>(core)]->forEachLine(
                [&](const CacheLine &line) {
                    actual[line.addr] |= 1u << i;
                });
        }
        std::string bad;
        for (const auto &[addr, bits] : actual) {
            const CacheLine *l = llc.find(addr);
            if (!l) {
                bad = msgCat("socket ", s, " line ", addr,
                             " in a private cache but not in LLC "
                             "(inclusion violated)");
                break;
            }
            if (l->coreValid != bits) {
                bad = msgCat("socket ", s, " line ", addr,
                             " core-valid bits ", l->coreValid,
                             " != actual residency ", bits);
                break;
            }
        }
        if (!bad.empty())
            return bad;
        // Bits set for lines with no private copy are also errors.
        llc.forEachLine([&](const CacheLine &line) {
            const auto it = actual.find(line.addr);
            const std::uint32_t real =
                it == actual.end() ? 0 : it->second;
            if (line.coreValid != real && bad.empty()) {
                bad = msgCat("socket ", s, " LLC line ", line.addr,
                             " core-valid bits ", line.coreValid,
                             " != actual residency ", real);
            }
        });
        if (!bad.empty())
            return bad;
    }

    // 3. Global directory consistency; single E/M owner globally;
    //    E/M excludes any other copy. With an inclusive LLC the
    //    global directory mirrors LLC presence exactly; the
    //    non-inclusive variant was checked above.
    std::unordered_map<PAddr, std::uint32_t> llc_presence;
    for (int s = 0; s < config_.sockets; ++s) {
        sockets_[static_cast<std::size_t>(s)].llc->forEachLine(
            [&](const CacheLine &line) {
                llc_presence[line.addr] |= 1u << s;
            });
    }
    if (config_.llcInclusive()) {
        for (const auto &[addr, bits] : llc_presence) {
            if (globalDir_.lookup(addr) != bits) {
                return msgCat("line ", addr,
                              " global directory bits ",
                              globalDir_.lookup(addr),
                              " != LLC presence ", bits);
            }
        }
        std::string bad;
        globalDir_.forEach([&](PAddr addr, std::uint32_t bits) {
            if (!bad.empty())
                return;
            const auto it = llc_presence.find(addr);
            if (it == llc_presence.end() || it->second != bits) {
                bad = msgCat("line ", addr,
                             " in global directory with bits ",
                             bits, " but LLC presence is ",
                             it == llc_presence.end() ? 0u
                                                      : it->second);
            }
        });
        if (!bad.empty())
            return bad;
    }

    // Count private copies and special states per line, globally.
    struct Owners
    {
        int copies = 0;
        int exclusive = 0;  //!< E or M holders
        int owned = 0;      //!< O holders (MOESI)
        int forward = 0;    //!< F holders (MESIF)
    };
    std::unordered_map<PAddr, Owners> owners;
    for (int c = 0; c < cores; ++c) {
        l2s_[static_cast<std::size_t>(c)]->forEachLine(
            [&](const CacheLine &line) {
                auto &o = owners[line.addr];
                ++o.copies;
                if (line.state == Mesi::exclusive ||
                    line.state == Mesi::modified) {
                    ++o.exclusive;
                } else if (line.state == Mesi::owned) {
                    ++o.owned;
                } else if (line.state == Mesi::forward) {
                    ++o.forward;
                }
            });
    }
    for (const auto &[addr, o] : owners) {
        if (o.exclusive > 1) {
            return msgCat("line ", addr, " has ", o.exclusive,
                          " exclusive/modified owners");
        }
        if (o.exclusive == 1 && o.copies > 1) {
            return msgCat("line ", addr,
                          " has an E/M owner plus other copies");
        }
        if (o.exclusive == 1) {
            const auto it = llc_presence.find(addr);
            if (it != llc_presence.end() &&
                std::popcount(it->second) > 1) {
                return msgCat("line ", addr,
                              " E/M owned but present in multiple "
                              "sockets");
            }
        }
        if (o.owned > 1) {
            return msgCat("line ", addr, " has ", o.owned,
                          " O-state owners");
        }
        if (o.forward > 1) {
            return msgCat("line ", addr, " has ", o.forward,
                          " F-state forwarders");
        }
        if (o.owned > 0 && config_.flavor != CoherenceFlavor::moesi) {
            return msgCat("line ", addr,
                          " holds O state outside MOESI");
        }
        if (o.forward > 0 &&
            config_.flavor != CoherenceFlavor::mesif) {
            return msgCat("line ", addr,
                          " holds F state outside MESIF");
        }
        if (o.copies > 1) {
            // All sharers must be in sharing-compatible states.
            for (int c = 0; c < cores; ++c) {
                const CacheLine *l =
                    l2s_[static_cast<std::size_t>(c)]->find(addr);
                if (l && l->state != Mesi::shared &&
                    l->state != Mesi::owned &&
                    l->state != Mesi::forward) {
                    return msgCat("line ", addr, " has ", o.copies,
                                  " copies but core ", c, " holds ",
                                  mesiName(l->state));
                }
            }
        }
    }

    return {};
}

std::uint32_t
MemorySystem::residencyBits(SocketId socket, PAddr line) const
{
    if (config_.llcInclusive()) {
        const auto &llc =
            *sockets_[static_cast<std::size_t>(socket)].llc;
        if (const CacheLine *l = llc.find(line))
            return l->coreValid;
        return 0;
    }
    return snoopFilter_[static_cast<std::size_t>(socket)]
        .lookup(line);
}

void
MemorySystem::addResidency(SocketId socket, PAddr line, CoreId core)
{
    if (config_.llcInclusive()) {
        CacheLine *L =
            sockets_[static_cast<std::size_t>(socket)].llc->find(
                line);
        panic_if(!L, "inclusive residency add without an LLC line");
        L->coreValid |= coreBit(core);
        return;
    }
    snoopFilter_[static_cast<std::size_t>(socket)][line] |=
        coreBit(core);
}

void
MemorySystem::clearResidency(SocketId socket, PAddr line,
                             CoreId core)
{
    if (config_.llcInclusive()) {
        if (CacheLine *L = sockets_[static_cast<std::size_t>(socket)]
                               .llc->find(line)) {
            L->coreValid &= ~coreBit(core);
            if (L->coreValid == 0)
                L->ownerModified = false;
        }
        return;
    }
    LineMap &dir = snoopFilter_[static_cast<std::size_t>(socket)];
    std::uint32_t *bits = dir.find(line);
    if (!bits)
        return;
    *bits &= ~coreBit(core);
    if (*bits == 0) {
        dir.erase(line);
        reconcilePresence(socket, line);
    }
}

void
MemorySystem::reconcilePresence(SocketId socket, PAddr line)
{
    // Non-inclusive mode: a socket is "present" while either its
    // LLC caches the data or one of its cores holds a private copy.
    if (config_.llcInclusive())
        return;
    if (residencyBits(socket, line) != 0 ||
        sockets_[static_cast<std::size_t>(socket)].llc->find(line)) {
        return;
    }
    if (std::uint32_t *bits = globalDir_.find(line)) {
        *bits &= ~(1u << socket);
        if (*bits == 0)
            globalDir_.erase(line);
    }
}

AccessResult
MemorySystem::profiledOp(int kind, CoreId core, PAddr addr, Tick when)
{
    // Entered from the inline wrappers only on the stride-th op
    // (the wrapper decrements the countdown, so the sampled op is
    // the same one regardless of the host thread running this
    // machine); re-arm it here, disarming if profiling was switched
    // off since this machine was built.
    profCountdown_ = Profiler::armSample();
    static const char *const names[3] = {"mem.load", "mem.store",
                                         "mem.flush"};
    AccessResult r;
    switch (kind) {
      case 0: r = loadImpl(core, addr, when); break;
      case 1: r = storeImpl(core, addr, when); break;
      default: r = flushImpl(core, addr, when); break;
    }
    // No wall-clock reads: one access is tens of host ns, at or
    // below clock resolution, and two steady_clock calls per sample
    // would dominate the sample's own cost. The virtual latency is
    // the signal here; wall time stays attributed to the enclosing
    // phase span.
    if (profCountdown_ != 0) {
        profRecord(names[kind], 0,
                   static_cast<std::uint64_t>(r.latency));
    }
    return r;
}

} // namespace csim
