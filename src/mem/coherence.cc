/**
 * @file
 * MESI directory protocol transitions (the logic of paper §VI).
 *
 * Part of MemorySystem; structural helpers and invariant checking
 * live in memory_system.cc.
 */

#include <bit>

#include "common/logging.hh"
#include "mem/memory_system.hh"

namespace csim
{

namespace
{

/** States whose holder must service reads (data or designation). */
bool
mustForward(Mesi s)
{
    return s == Mesi::exclusive || s == Mesi::modified ||
           s == Mesi::owned;
}

/** States holding data newer than the LLC/DRAM copy. */
bool
isDirtyState(Mesi s)
{
    return s == Mesi::modified || s == Mesi::owned;
}

/** Publish a coherence-category event (no-op while nobody listens). */
void
pubCoh(const TraceBus &bus, TraceEventType type, CoreId core,
       PAddr line, Tick when, std::uint64_t a = 0, std::uint64_t b = 0)
{
    if (bus.enabled(TraceCategory::coherence))
        bus.publish(TraceEvent{type, TraceCategory::coherence, core,
                               when, line, a, b});
}

std::uint64_t
mesiWord(Mesi s)
{
    return static_cast<std::uint64_t>(s);
}

} // namespace

AccessResult
MemorySystem::loadImpl(CoreId core, PAddr addr, Tick when)
{
    maybeRekey(when);
    ++stats_.loads;
    const PAddr line = lineAlign(addr);
    const bool traced = traceLine && line == traceLine;
    const auto idx = static_cast<std::size_t>(core);
    const TimingParams &t = config_.timing;

    if (CacheLine *l = l1s_[idx]->find(line)) {
        l1s_[idx]->touch(*l);
        ++stats_.l1Hits;
        if (traced)
            inform("TRACE load  c", core, " @", when, " -> L1 hit");
        return {t.l1Hit + jitter(), ServedBy::l1};
    }
    if (CacheLine *l = l2s_[idx]->find(line)) {
        l2s_[idx]->touch(*l);
        // Refill L1; its victim is silently dropped (still in L2).
        Victim v1;
        l1s_[idx]->insert(line, l->state, &v1);
        ++stats_.l2Hits;
        if (traced)
            inform("TRACE load  c", core, " @", when, " -> L2 hit");
        return {t.l2Hit + jitter(), ServedBy::l2};
    }

    // Private miss: consult the local LLC and its directory.
    const SocketId socket = socketOf(core);
    auto &sk = sockets_[static_cast<std::size_t>(socket)];
    // Every private miss enters the socket's uncore global queue,
    // which also carries all DRAM-bound traffic: heavy memory noise
    // slows even LLC-hit service (shared ring/GQ coupling).
    pathUtil_ = t.uncoreCoupling * dram_.utilAt(when,
                                                t.contentionTau);
    const Tick wait = occupy(sk.llcPort, when, t.llcPortBusy);

    ServedBy served = ServedBy::none;
    Tick lat = serveLocal(core, line, when, served);
    if (lat == maxTick) {
        const std::uint32_t remotes =
            presenceBits(line) & ~(1u << socket);
        if (remotes) {
            const SocketId remote = std::countr_zero(remotes);
            lat = serveRemote(core, remote, line, when, served);
        } else {
            lat = serveDram(core, line, when, served);
        }
    }
    double path_util = pathUtil_;
    if (served == ServedBy::localOwner ||
        served == ServedBy::remoteOwner) {
        path_util *= t.exclPathContention;
    }
    const AccessResult res{
        wait + lat + contentionDelay(path_util) + jitter(), served};
    if (trace_.enabled(TraceCategory::mem)) {
        trace_.publish(TraceEvent{
            TraceEventType::memLoad, TraceCategory::mem, core, when,
            line, static_cast<std::uint64_t>(res.servedBy),
            res.latency});
    }
    if (traced) {
        inform("TRACE load  c", core, " @", when, " -> ",
               servedByName(res.servedBy), " lat=", res.latency);
    }
    return res;
}

Tick
MemorySystem::serveLocal(CoreId core, PAddr line, Tick when,
                         ServedBy &served)
{
    const SocketId socket = socketOf(core);
    auto &llc = *sockets_[static_cast<std::size_t>(socket)].llc;
    CacheLine *L = llc.find(line);
    const std::uint32_t others = residencyBits(socket, line);
    if (!L && (config_.llcInclusive() || others == 0))
        return maxTick;

    const TimingParams &t = config_.timing;
    panic_if(others & coreBit(core),
             "core ", core, " missed privately on line ", line,
             " but its residency bit is set");
    const int sharers = std::popcount(others);
    // A fill for this line may still be in flight: the request
    // coalesces and waits for the data to arrive first.
    const Tick fill_wait =
        (L && L->fillReadyAt > when) ? L->fillReadyAt - when : 0;

    Tick lat;
    Mesi fill_state = Mesi::shared;
    bool forwarded_from_excl = false;
    const CoreId dirty_owner = dirtySharerOf(socket, others, line);
    if (sharers == 1) {
        const CoreId owner = coreFromBit(socket, others);
        const Mesi ost = privState(owner, line);
        panic_if(ost == Mesi::invalid,
                 "directory claims core ", owner, " holds line ",
                 line, " but its private caches miss");
        const bool llcCanServe =
            t.llcNotifiedOfUpgrade && ost == Mesi::exclusive && L &&
            !L->ownerModified;
        if (mustForward(ost) && !llcCanServe) {
            // The owner's copy may be newer than the LLC: forward to
            // the owner, which replies (paper §VI-A). Under MESI the
            // owner downgrades to S and dirty data is written back;
            // under MOESI a modified owner transitions to O, keeps
            // the dirty line and skips the writeback (paper §II-B).
            if (ost == Mesi::modified &&
                config_.flavor == CoherenceFlavor::moesi) {
                setPrivateState(owner, line, Mesi::owned);
                pubCoh(trace_, TraceEventType::cohDowngrade, owner,
                       line, when, mesiWord(ost),
                       mesiWord(Mesi::owned));
            } else {
                if (isDirtyState(ost)) {
                    // Write back into the LLC when it caches the
                    // line; with a non-inclusive LLC data miss the
                    // dirty data goes to memory.
                    if (L)
                        L->dirty = true;
                    else
                        occupy(dram_, when, t.dramBusy);
                    ++stats_.writebacks;
                    pubCoh(trace_, TraceEventType::cohWriteback,
                           owner, line, when);
                }
                if (ost != Mesi::owned) {
                    forwarded_from_excl = true;
                    setPrivateState(owner, line, Mesi::shared);
                    pubCoh(trace_, TraceEventType::cohDowngrade,
                           owner, line, when, mesiWord(ost),
                           mesiWord(Mesi::shared));
                }
            }
            if (L)
                L->ownerModified = false;
            served = ServedBy::localOwner;
            ++stats_.localOwnerForwards;
            pubCoh(trace_, TraceEventType::cohOwnerForward, owner,
                   line, when, static_cast<std::uint64_t>(core), 0);
            lat = t.localExclLat();
        } else if (L) {
            // Mitigated E (known clean) or S owner: LLC serves.
            if (ost == Mesi::exclusive) {
                setPrivateState(owner, line, Mesi::shared);
                pubCoh(trace_, TraceEventType::cohDowngrade, owner,
                       line, when, mesiWord(ost),
                       mesiWord(Mesi::shared));
            }
            served = ServedBy::localLlc;
            ++stats_.localLlcServes;
            lat = t.localSharedLat();
        } else {
            // Non-inclusive LLC data miss with a clean sharer:
            // cache-to-cache supply (rare; paper §VIII-E).
            served = ServedBy::localOwner;
            ++stats_.localOwnerForwards;
            lat = t.localExclLat();
        }
    } else if (dirty_owner != invalidCore) {
        // MOESI: an O-state owner among the sharers holds data newer
        // than the LLC and services the read itself.
        served = ServedBy::localOwner;
        ++stats_.localOwnerForwards;
        lat = t.localExclLat();
    } else if (L) {
        // Zero or >=2 (clean) sharers: the LLC holds a clean copy
        // and can directly service the miss (paper §VI-A).
        served = ServedBy::localLlc;
        ++stats_.localLlcServes;
        lat = t.localSharedLat();
    } else {
        // Non-inclusive: clean sharers exist but the LLC dropped the
        // data; a sharer supplies it (paper §VIII-E: "absence of
        // S-state blocks in LLC should be rare").
        served = ServedBy::localOwner;
        ++stats_.localOwnerForwards;
        lat = t.localExclLat();
    }

    addResidency(socket, line, core);
    if (L)
        llc.touch(*L);
    // Exclusive LLC: serving the fill promotes the line into the
    // private levels, so the LLC copy must go. Capture the dirty bit
    // now — the private fill below can displace L's slot.
    const bool excl_promote = config_.llcExclusive() && L != nullptr;
    const bool excl_dirty = excl_promote && L->dirty;
    const bool shared_now =
        std::popcount(residencyBits(socket, line)) >= 2 ||
        (presenceBits(line) & ~(1u << socket));
    if (!shared_now) {
        fill_state = Mesi::exclusive;
    } else if (config_.flavor == CoherenceFlavor::mesif &&
               forwarded_from_excl) {
        // MESIF: the newest clean sharer is designated forwarder.
        clearForwarder(line);
        fill_state = Mesi::forward;
    }
    fillPrivate(core, line, fill_state, when);
    if (excl_promote && llc.invalidate(line)) {
        // Dirty data cannot stay in the dropped LLC copy: it is
        // written back to memory at promotion (the private copy is
        // installed clean).
        if (excl_dirty) {
            occupy(dram_, when, t.dramBusy);
            ++stats_.writebacks;
            pubCoh(trace_, TraceEventType::cohWriteback, core, line,
                   when);
        }
        reconcilePresence(socket, line);
    }
    if (config_.lookup == CoherenceLookup::snoop)
        lat += t.snoopOverhead;
    return fill_wait + lat;
}

Tick
MemorySystem::serveRemote(CoreId core, SocketId remote, PAddr line,
                          Tick when, ServedBy &served)
{
    const SocketId socket = socketOf(core);
    const TimingParams &t = config_.timing;
    auto &rsk = sockets_[static_cast<std::size_t>(remote)];

    Tick wait = occupy(qpi_, when, t.qpiBusy);
    wait += occupy(rsk.llcPort, when, t.llcPortBusy);

    CacheLine *R = rsk.llc->find(line);
    const std::uint32_t r_bits = residencyBits(remote, line);
    panic_if(!R && (config_.llcInclusive() || r_bits == 0),
             "global directory claims socket ", remote,
             " holds line ", line, " but nothing does");
    const Tick fill_wait =
        (R && R->fillReadyAt > when) ? R->fillReadyAt - when : 0;

    Tick lat;
    const int sharers = std::popcount(r_bits);
    const CoreId remote_dirty = dirtySharerOf(remote, r_bits, line);
    if (sharers == 1) {
        const CoreId owner = coreFromBit(remote, r_bits);
        const Mesi ost = privState(owner, line);
        panic_if(ost == Mesi::invalid,
                 "remote directory claims core ", owner,
                 " holds line ", line, " but it does not");
        const bool llcCanServe =
            t.llcNotifiedOfUpgrade && ost == Mesi::exclusive && R &&
            !R->ownerModified;
        if (mustForward(ost) && !llcCanServe) {
            // Remote LLC routes the request up to the owner core,
            // which replies (paper §VI-B). MESI: downgrade to S and
            // write back; MOESI: M becomes O, no writeback.
            if (ost == Mesi::modified &&
                config_.flavor == CoherenceFlavor::moesi) {
                setPrivateState(owner, line, Mesi::owned);
                pubCoh(trace_, TraceEventType::cohDowngrade, owner,
                       line, when, mesiWord(ost),
                       mesiWord(Mesi::owned));
            } else {
                if (isDirtyState(ost)) {
                    if (R)
                        R->dirty = true;
                    else
                        occupy(dram_, when, t.dramBusy);
                    ++stats_.writebacks;
                    pubCoh(trace_, TraceEventType::cohWriteback,
                           owner, line, when);
                }
                if (ost != Mesi::owned) {
                    setPrivateState(owner, line, Mesi::shared);
                    pubCoh(trace_, TraceEventType::cohDowngrade,
                           owner, line, when, mesiWord(ost),
                           mesiWord(Mesi::shared));
                }
            }
            if (R)
                R->ownerModified = false;
            served = ServedBy::remoteOwner;
            ++stats_.remoteOwnerForwards;
            pubCoh(trace_, TraceEventType::cohOwnerForward, owner,
                   line, when, static_cast<std::uint64_t>(core), 1);
            lat = t.remoteExclLat();
        } else if (R) {
            if (ost == Mesi::exclusive) {
                setPrivateState(owner, line, Mesi::shared);
                pubCoh(trace_, TraceEventType::cohDowngrade, owner,
                       line, when, mesiWord(ost),
                       mesiWord(Mesi::shared));
            }
            served = ServedBy::remoteLlc;
            ++stats_.remoteLlcServes;
            lat = t.remoteSharedLat();
        } else {
            served = ServedBy::remoteOwner;
            ++stats_.remoteOwnerForwards;
            lat = t.remoteExclLat();
        }
    } else if (remote_dirty != invalidCore) {
        // MOESI: the remote O owner services the read.
        served = ServedBy::remoteOwner;
        ++stats_.remoteOwnerForwards;
        lat = t.remoteExclLat();
    } else if (R) {
        served = ServedBy::remoteLlc;
        ++stats_.remoteLlcServes;
        lat = t.remoteSharedLat();
    } else {
        // Non-inclusive remote data miss: a remote sharer supplies.
        served = ServedBy::remoteOwner;
        ++stats_.remoteOwnerForwards;
        lat = t.remoteExclLat();
    }
    if (R)
        rsk.llc->touch(*R);

    // Install the line in the requesting socket; both sockets now
    // share it, so every private copy is S. The local copy is in
    // flight until the reply arrives. An exclusive LLC is bypassed:
    // the data goes straight to the private levels and reaches the
    // LLC only as a later victim (no MSHR coalescing window there).
    if (config_.llcExclusive()) {
        globalDir_[line] |= 1u << socket;
        addResidency(socket, line, core);
    } else {
        CacheLine &L = installLlc(socket, line, when);
        L.coreValid = config_.llcInclusive() ? coreBit(core) : 0;
        L.dirty = false;
        L.fillReadyAt = when + fill_wait + wait + lat;
        globalDir_[line] |= 1u << socket;
        if (!config_.llcInclusive())
            addResidency(socket, line, core);
    }
    Mesi fill_state = Mesi::shared;
    if (config_.flavor == CoherenceFlavor::mesif) {
        // MESIF: the newest requester holds the line in F state and
        // will forward it on later cross-socket requests.
        clearForwarder(line);
        fill_state = Mesi::forward;
    }
    fillPrivate(core, line, fill_state, when);
    Tick snoop_extra = config_.lookup == CoherenceLookup::snoop
                           ? t.snoopOverhead
                           : 0;
    return fill_wait + wait + lat + snoop_extra;
}

Tick
MemorySystem::serveDram(CoreId core, PAddr line, Tick when,
                        ServedBy &served)
{
    const SocketId socket = socketOf(core);
    const TimingParams &t = config_.timing;
    Tick wait = occupy(dram_, when, t.dramBusy);
    Tick numa_extra = 0;
    if (t.numaInterleave && config_.sockets > 1) {
        // Line-interleaved NUMA homing: fetching a line homed on the
        // other socket traverses the inter-socket link.
        const SocketId home = static_cast<SocketId>(
            (line / lineBytes) % config_.sockets);
        if (home != socket) {
            wait += occupy(qpi_, when, t.qpiBusy);
            numa_extra = t.numaRemoteExtra;
        }
    }

    if (config_.llcExclusive()) {
        // DRAM fill bypasses the exclusive LLC (victim-fill only).
        globalDir_[line] |= 1u << socket;
        addResidency(socket, line, core);
    } else {
        CacheLine &L = installLlc(socket, line, when);
        L.coreValid = config_.llcInclusive() ? coreBit(core) : 0;
        L.dirty = false;
        L.fillReadyAt = when + wait + numa_extra + t.dramLat();
        globalDir_[line] |= 1u << socket;
        if (!config_.llcInclusive())
            addResidency(socket, line, core);
    }
    // First load anywhere: the requester becomes the exclusive owner.
    fillPrivate(core, line, Mesi::exclusive, when);
    served = ServedBy::dram;
    ++stats_.dramAccesses;
    return wait + numa_extra + t.dramLat();
}

AccessResult
MemorySystem::storeImpl(CoreId core, PAddr addr, Tick when)
{
    maybeRekey(when);
    ++stats_.stores;
    const PAddr line = lineAlign(addr);
    if (trace_.enabled(TraceCategory::mem)) {
        trace_.publish(TraceEvent{
            TraceEventType::memStore, TraceCategory::mem, core, when,
            line, static_cast<std::uint64_t>(ServedBy::none), 0});
    }
    const auto idx = static_cast<std::size_t>(core);
    const TimingParams &t = config_.timing;
    const SocketId socket = socketOf(core);
    const Mesi st = privState(core, line);

    if (st == Mesi::modified) {
        if (CacheLine *l = l1s_[idx]->find(line))
            l1s_[idx]->touch(*l);
        return {t.l1Hit + jitter(), ServedBy::l1};
    }

    if (st == Mesi::owned || st == Mesi::forward ||
        st == Mesi::shared) {
        // Upgrade: invalidate every other copy system wide. An O
        // owner already has the latest data; S/F holders fetch
        // permission only.
        ++stats_.upgrades;
        const bool had_remote = invalidateOthers(core, line, when);
        setPrivateState(core, line, Mesi::modified);
        pubCoh(trace_, TraceEventType::cohUpgrade, core, line, when,
               mesiWord(st), had_remote ? 1 : 0);
        auto &sk = sockets_[static_cast<std::size_t>(socket)];
        if (CacheLine *L = sk.llc->find(line)) {
            L->ownerModified = t.llcNotifiedOfUpgrade;
            sk.llc->touch(*L);
        }
        const Tick lat =
            t.upgradeLat + (had_remote ? t.qpiRoundTrip : 0);
        return {lat + jitter(), ServedBy::none};
    }

    if (st == Mesi::exclusive) {
        // Silent E->M upgrade: no invalidations needed (paper §II-B).
        setPrivateState(core, line, Mesi::modified);
        if (t.llcNotifiedOfUpgrade) {
            // Mitigation: tell the LLC its copy went stale.
            auto &sk = sockets_[static_cast<std::size_t>(socket)];
            occupy(sk.llcPort, when, t.llcPortBusy);
            if (CacheLine *L = sk.llc->find(line))
                L->ownerModified = true;
        }
        return {t.l1Hit + 1 + jitter(), ServedBy::l1};
    }

    // Write miss: read-for-ownership, then claim M.
    AccessResult read = load(core, addr, when);
    --stats_.loads;  // count the RFO as a store, not a load
    const bool had_remote = invalidateOthers(core, line, when);
    setPrivateState(core, line, Mesi::modified);
    auto &sk = sockets_[static_cast<std::size_t>(socket)];
    if (CacheLine *L = sk.llc->find(line))
        L->ownerModified = t.llcNotifiedOfUpgrade;
    read.latency +=
        t.invalidateLat + (had_remote ? t.qpiRoundTrip : 0);
    return read;
}

AccessResult
MemorySystem::flushImpl(CoreId core, PAddr addr, Tick when)
{
    maybeRekey(when);
    ++stats_.flushes;
    const PAddr line = lineAlign(addr);
    if (trace_.enabled(TraceCategory::mem)) {
        trace_.publish(TraceEvent{
            TraceEventType::memFlush, TraceCategory::mem, core, when,
            line, static_cast<std::uint64_t>(ServedBy::none), 0});
    }
    const TimingParams &t = config_.timing;

    // Directory-guided invalidation: only the sockets whose presence
    // bit is set can hold the line, and their residency bits name the
    // exact private holders. Iterating sockets then bits in ascending
    // order visits the same cores in the same order as the old
    // every-core scan.
    bool dirty = false;
    const std::uint32_t pres = presenceBits(line);
    for (int s = 0; s < config_.sockets; ++s) {
        if (!(pres & (1u << s)))
            continue;
        std::uint32_t bits = residencyBits(s, line);
        while (bits) {
            const std::uint32_t bit = bits & (~bits + 1);
            bits ^= bit;
            const CoreId c = coreFromBit(s, bit);
            if (isDirtyState(privState(c, line)))
                dirty = true;
            invalidatePrivate(c, line);
        }
        auto &sk = sockets_[static_cast<std::size_t>(s)];
        if (CacheLine *L = sk.llc->find(line)) {
            if (L->dirty)
                dirty = true;
            sk.llc->invalidate(line);
        }
        if (!config_.llcInclusive())
            snoopFilter_[static_cast<std::size_t>(s)].erase(line);
    }
    globalDir_.erase(line);
    if (dirty) {
        occupy(dram_, when, t.dramBusy);
        ++stats_.writebacks;
        pubCoh(trace_, TraceEventType::cohWriteback, core, line,
               when);
    }
    const Tick lat =
        t.flushBase + (dirty ? t.flushDirtyExtra : 0) + jitter();
    if (traceLine && line == traceLine) {
        inform("TRACE flush c", core, " @", when,
               dirty ? " (dirty)" : "");
    }
    return {lat, ServedBy::none};
}

void
MemorySystem::fillPrivate(CoreId core, PAddr line, Mesi state,
                          Tick when)
{
    const auto idx = static_cast<std::size_t>(core);
    Victim v2;
    l2s_[idx]->insert(line, state, &v2);
    if (v2.valid)
        handleL2Victim(core, v2.line, when);
    Victim v1;
    l1s_[idx]->insert(line, state, &v1);
    // L1 victims are silently dropped: the line remains in L2.
}

void
MemorySystem::setPrivateState(CoreId core, PAddr line, Mesi state)
{
    const auto idx = static_cast<std::size_t>(core);
    CacheLine *l2 = l2s_[idx]->find(line);
    panic_if(!l2, "setPrivateState: core ", core,
             " does not hold line ", line);
    l2->state = state;
    if (CacheLine *l1 = l1s_[idx]->find(line))
        l1->state = state;
}

void
MemorySystem::invalidatePrivate(CoreId core, PAddr line)
{
    const auto idx = static_cast<std::size_t>(core);
    l1s_[idx]->invalidate(line);
    l2s_[idx]->invalidate(line);
}

void
MemorySystem::handleL2Victim(CoreId core, const CacheLine &victim,
                             Tick when)
{
    // L2 is inclusive of L1: evicting from L2 also drops the L1
    // copy.
    l1s_[static_cast<std::size_t>(core)]->invalidate(victim.addr);
    const SocketId socket = socketOf(core);
    auto &sk = sockets_[static_cast<std::size_t>(socket)];
    if (config_.llcExclusive()) {
        clearResidency(socket, victim.addr, core);
        if (residencyBits(socket, victim.addr) == 0) {
            // The last private copy in this socket leaves: allocate
            // the victim into the LLC (the victim-cache fill that
            // defines exclusive mode). Dirty data rides along as a
            // dirty LLC line; nothing reaches memory yet.
            occupy(sk.llcPort, when, config_.timing.llcPortBusy);
            CacheLine &L = installLlc(socket, victim.addr, when);
            L.dirty = isDirtyState(victim.state);
            globalDir_[victim.addr] |= 1u << socket;
        } else if (isDirtyState(victim.state)) {
            // MOESI O victim with sharers left behind: the LLC must
            // stay empty of the line, so the data goes to memory.
            occupy(dram_, when, config_.timing.dramBusy);
            ++stats_.writebacks;
            pubCoh(trace_, TraceEventType::cohWriteback, core,
                   victim.addr, when);
        }
        return;
    }
    CacheLine *L = sk.llc->find(victim.addr);
    panic_if(!L && config_.llcInclusive(),
             "L2 victim line ", victim.addr,
             " absent from its inclusive LLC");
    if (isDirtyState(victim.state)) {
        if (L) {
            L->dirty = true;
            occupy(sk.llcPort, when, config_.timing.llcPortBusy);
        } else {
            // Non-inclusive LLC without the data: write to memory.
            occupy(dram_, when, config_.timing.dramBusy);
        }
        ++stats_.writebacks;
        pubCoh(trace_, TraceEventType::cohWriteback, core,
               victim.addr, when);
    }
    // The eviction notifies the directory (modelling simplification;
    // see DESIGN.md): the residency bit is cleared.
    clearResidency(socket, victim.addr, core);
}

void
MemorySystem::handleLlcVictim(SocketId socket, const CacheLine &victim,
                              Tick when)
{
    if (!config_.llcInclusive()) {
        // Non-inclusive LLC: private copies survive the data
        // eviction; only dirty data is written back and the
        // socket-presence accounting reconciled.
        if (victim.dirty) {
            occupy(dram_, when, config_.timing.dramBusy);
            ++stats_.writebacks;
        }
        reconcilePresence(socket, victim.addr);
        return;
    }
    // Inclusive LLC: displacement back-invalidates every private copy
    // in this socket.
    bool dirty = victim.dirty;
    std::uint32_t bits = victim.coreValid;
    while (bits) {
        const std::uint32_t bit = bits & (~bits + 1);
        bits ^= bit;
        const CoreId core = coreFromBit(socket, bit);
        if (isDirtyState(privState(core, victim.addr)))
            dirty = true;
        invalidatePrivate(core, victim.addr);
        ++stats_.backInvalidations;
        pubCoh(trace_, TraceEventType::cohBackInvalidate, core,
               victim.addr, when);
    }
    if (dirty) {
        occupy(dram_, when, config_.timing.dramBusy);
        ++stats_.writebacks;
        pubCoh(trace_, TraceEventType::cohWriteback, invalidCore,
               victim.addr, when);
    }
    std::uint32_t *dir_bits = globalDir_.find(victim.addr);
    panic_if(!dir_bits,
             "LLC victim line ", victim.addr,
             " missing from the global directory");
    *dir_bits &= ~(1u << socket);
    if (*dir_bits == 0)
        globalDir_.erase(victim.addr);
}

CoreId
MemorySystem::dirtySharerOf(SocketId socket, std::uint32_t core_valid,
                            PAddr line) const
{
    if (config_.flavor != CoherenceFlavor::moesi)
        return invalidCore;
    std::uint32_t bits = core_valid;
    while (bits) {
        const std::uint32_t bit = bits & (~bits + 1);
        bits ^= bit;
        const CoreId core = coreFromBit(socket, bit);
        if (privState(core, line) == Mesi::owned)
            return core;
    }
    return invalidCore;
}

void
MemorySystem::clearForwarder(PAddr line)
{
    // Directory-guided: only cores with a residency bit in a present
    // socket can hold the F copy.
    const std::uint32_t pres = presenceBits(line);
    for (int s = 0; s < config_.sockets; ++s) {
        if (!(pres & (1u << s)))
            continue;
        std::uint32_t bits = residencyBits(s, line);
        while (bits) {
            const std::uint32_t bit = bits & (~bits + 1);
            bits ^= bit;
            const CoreId c = coreFromBit(s, bit);
            if (privState(c, line) == Mesi::forward)
                setPrivateState(c, line, Mesi::shared);
        }
    }
}

CacheLine &
MemorySystem::installLlc(SocketId socket, PAddr line, Tick when)
{
    auto &sk = sockets_[static_cast<std::size_t>(socket)];
    Victim v;
    CacheLine &L = sk.llc->insert(line, Mesi::shared, &v);
    if (v.valid)
        handleLlcVictim(socket, v.line, when);
    return L;
}

bool
MemorySystem::invalidateOthers(CoreId keep_core, PAddr line, Tick when)
{
    const SocketId keep_socket = socketOf(keep_core);
    bool had_remote = false;
    // Directory-guided: visit only the cores whose residency bit is
    // set in a present socket (ascending, matching the old scan of
    // every core). The bit vector is snapshotted per socket because
    // clearResidency mutates the snoop filter as we go.
    const std::uint32_t pres = presenceBits(line);
    for (int s = 0; s < config_.sockets; ++s) {
        if (!(pres & (1u << s)))
            continue;
        auto &vsk = sockets_[static_cast<std::size_t>(s)];
        std::uint32_t bits = residencyBits(s, line);
        while (bits) {
            const std::uint32_t bit = bits & (~bits + 1);
            bits ^= bit;
            const CoreId c = coreFromBit(s, bit);
            if (c == keep_core)
                continue;
            const Mesi st = privState(c, line);
            if (st == Mesi::invalid)
                continue;
            if (isDirtyState(st)) {
                // The dirty data moves to the new owner with the RFO
                // response; account the line as dirty at its LLC so
                // it is not silently dropped.
                if (CacheLine *V = vsk.llc->find(line))
                    V->dirty = true;
            }
            if (s != keep_socket)
                had_remote = true;
            invalidatePrivate(c, line);
            if (!config_.llcInclusive())
                clearResidency(s, line, c);
        }
    }
    for (int s = 0; s < config_.sockets; ++s) {
        // The presence bits were snapshotted above, but LLC presence
        // implies a directory bit (invariant), so sockets outside
        // @c pres cannot cache the line.
        if (!(pres & (1u << s)))
            continue;
        auto &sk = sockets_[static_cast<std::size_t>(s)];
        CacheLine *L = sk.llc->find(line);
        if (!L)
            continue;
        if (s == keep_socket) {
            if (config_.llcInclusive()) {
                L->coreValid =
                    privState(keep_core, line) != Mesi::invalid
                        ? coreBit(keep_core)
                        : 0;
            }
        } else {
            had_remote = true;
            sk.llc->invalidate(line);
            if (config_.llcInclusive()) {
                if (std::uint32_t *gb = globalDir_.find(line)) {
                    *gb &= ~(1u << s);
                    if (*gb == 0)
                        globalDir_.erase(line);
                }
            } else {
                reconcilePresence(s, line);
            }
        }
    }
    if (had_remote)
        occupy(qpi_, when, config_.timing.qpiBusy);
    return had_remote;
}

} // namespace csim
