/**
 * @file
 * Self-timed per-layer performance suite with a regression gate. It is
 * the simulator's one per-layer kernel harness; end-to-end timing
 * lives in the repository benchmark (`benchmark/cohersim_bench`).
 *
 * Each kernel drives one hot path in a steady state: `MemorySystem`
 * (L1 hit, LLC serve, local and cross-socket owner forward,
 * flush+reload round, directory churn, remap rekey), the `Scheduler`
 * (event steps with few threads and on oversubscribed cores, and an
 * idle-heavy loader crew), translated loads and a KSM scan pass
 * (`os`), the edit-distance accuracy metric, one
 * calibration (`channel`) and building a whole machine. Every kernel reports host ops/sec and,
 * where virtual time means something, the mean *virtual* cycles per
 * op. The results land in `BENCH_perf.json`.
 *
 * Host throughput is machine-dependent, so the suite also times a
 * pure-arithmetic `host_ref` kernel that never touches the simulator.
 * `--check <baseline.json>` rescales every baseline figure by the
 * host_ref ratio before applying the 25% tolerance, which lets one
 * committed baseline (`bench/perf_baseline.json`) gate CI runners of
 * different speeds:
 *
 *   perf_suite --check bench/perf_baseline.json   # exit 1 on regression
 *   perf_suite --json BENCH_perf.json             # measure + write only
 *
 * The baseline is read before anything is timed: a malformed one, or
 * one without host_ref, exits 2 at once. A baseline kernel the run no
 * longer has is reported GONE and fails the gate.
 *
 * Refresh the baseline after an intentional perf change with
 *   perf_suite --json bench/perf_baseline.json
 * on an otherwise idle machine (see EXPERIMENTS.md).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cohersim/attack.hh"
#include "cohersim/harness.hh"
#include "prof/profiler.hh"

namespace
{

using namespace csim;

using Clock = std::chrono::steady_clock;

/** Repetitions per kernel; the fastest one is kept. */
constexpr int reps = 3;
/** Minimum wall time of one repetition, in seconds. */
constexpr double minSeconds = 0.25;
/** A kernel fails the gate below (1 - tolerance) of its baseline. */
constexpr double tolerance = 0.25;
/** The host-speed reference kernel that every baseline is rescaled by. */
constexpr const char *hostRef = "host_ref";

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

SystemConfig
quietConfig()
{
    SystemConfig cfg;
    cfg.timing.jitterSd = 0.0;
    cfg.timing.longTailProb = 0.0;
    cfg.seed = 3;
    return cfg;
}

/**
 * Make @p value look read to the optimiser. Kernels whose results
 * have no virtual-cycle meaning sum them into a local and pass it
 * here, so no timed call can be folded away.
 */
template <typename T>
void
keepLive(const T &value)
{
    asm volatile("" : : "r"(&value) : "memory");
}

struct KernelResult
{
    std::string name;
    double opsPerSec = 0.0;  //!< best rep
    double cyclesPerOp = 0.0; //!< mean virtual cycles/op, best rep
    std::uint64_t ops = 0;    //!< ops in the best rep
    double seconds = 0.0;     //!< wall of the best rep
};

/**
 * Time @p body (which runs one batch, adding to the op and virtual
 * cycle counters) in `reps` repetitions of at least `minSeconds`
 * each and keep the fastest rep. State captured by the body persists
 * across batches, so the kernel stays in steady state.
 */
template <typename Body>
KernelResult
measureKernel(Body &&body)
{
    KernelResult best;
    for (int rep = 0; rep < reps; ++rep) {
        std::uint64_t ops = 0;
        std::uint64_t vcycles = 0;
        const Clock::time_point start = Clock::now();
        double elapsed = 0.0;
        do {
            body(ops, vcycles);
            elapsed = secondsSince(start);
        } while (elapsed < minSeconds);
        const double ops_per_sec = static_cast<double>(ops) / elapsed;
        if (ops_per_sec > best.opsPerSec) {
            best.opsPerSec = ops_per_sec;
            best.cyclesPerOp = ops == 0
                ? 0.0
                : static_cast<double>(vcycles)
                      / static_cast<double>(ops);
            best.ops = ops;
            best.seconds = elapsed;
        }
    }
    return best;
}

/** Pure-arithmetic reference: normalises baselines across hosts. */
KernelResult
kernelHostRef()
{
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    return measureKernel(
        [&state](std::uint64_t &ops, std::uint64_t &) {
            std::uint64_t x = state;
            for (int i = 0; i < 4096; ++i) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Keep the dependency chain live so the loop is not
                // folded away; the kernel must time real arithmetic.
                asm volatile("" : "+r"(x));
            }
            state = x;
            ops += 4096;
        });
}

/** Same line loaded by the same core forever: pure L1 hits. */
KernelResult
kernelL1HitLoad()
{
    MemorySystem mem(quietConfig());
    Tick now = 0;
    mem.load(0, 0x1000, now);
    return measureKernel(
        [&mem, &now](std::uint64_t &ops, std::uint64_t &vcycles) {
            for (int i = 0; i < 1024; ++i) {
                now += 10;
                vcycles += static_cast<std::uint64_t>(
                    mem.load(0, 0x1000, now).latency);
            }
            ops += 1024;
        });
}

/**
 * Stride over a 1 MiB working set: larger than L2 (256 KiB) so the
 * private caches thrash, smaller than the LLC (12 MiB) so every load
 * is served by the shared cache in steady state.
 */
KernelResult
kernelLlcServeLoad()
{
    MemorySystem mem(quietConfig());
    constexpr PAddr base = 0x10'0000;
    constexpr PAddr span = 1 << 20;
    // Advance virtual time past the serve latency so the resource
    // queues stay drained and cycles/op reports the bare path.
    Tick now = 0;
    PAddr offset = 0;
    for (PAddr a = 0; a < span; a += 64) {   // warm the LLC
        now += 500;
        mem.load(0, base + a, now);
    }
    return measureKernel(
        [&mem, &now, &offset](std::uint64_t &ops,
                              std::uint64_t &vcycles) {
            for (int i = 0; i < 1024; ++i) {
                now += 500;
                vcycles += static_cast<std::uint64_t>(
                    mem.load(0, base + offset, now).latency);
                offset = (offset + 64) % span;
            }
            ops += 1024;
        });
}

/**
 * One flush + exclusive fill at core 0 + load by core @p reader per
 * op: the owner-forward path the E-state covert channel is built on.
 * Reader 1 shares core 0's socket (local forward); reader 6 sits on
 * the other socket (cross-socket forward).
 */
KernelResult
kernelOwnerForward(CoreId reader)
{
    MemorySystem mem(quietConfig());
    Tick now = 0;
    return measureKernel(
        [&mem, &now, reader](std::uint64_t &ops,
                             std::uint64_t &vcycles) {
            for (int i = 0; i < 64; ++i) {
                mem.flush(0, 0x1000, now);
                mem.load(0, 0x1000, now + 100);      // E at core 0
                vcycles += static_cast<std::uint64_t>(
                    mem.load(reader, 0x1000, now + 600).latency);
                now += 1'000;
            }
            ops += 64;
        });
}

/** The spy's flush+reload round against a single target line. */
KernelResult
kernelFlushReloadCycle()
{
    MemorySystem mem(quietConfig());
    Tick now = 0;
    return measureKernel(
        [&mem, &now](std::uint64_t &ops, std::uint64_t &vcycles) {
            for (int i = 0; i < 256; ++i) {
                mem.flush(0, 0x2000, now);
                vcycles += static_cast<std::uint64_t>(
                    mem.load(0, 0x2000, now + 100).latency);
                now += 1'000;
            }
            ops += 256;
        });
}

/**
 * Stride over a 24 MiB working set — twice the LLC — so every load
 * misses everywhere, evicts an LLC victim and churns the home-agent
 * directory (insert + erase per op).
 */
KernelResult
kernelDirectoryChurn()
{
    MemorySystem mem(quietConfig());
    constexpr PAddr base = 0x100'0000;
    constexpr PAddr span = 24u << 20;
    Tick now = 0;
    PAddr offset = 0;
    for (PAddr a = 0; a < span; a += 64) {   // reach steady state
        now += 1'000;
        mem.load(0, base + a, now);
    }
    return measureKernel(
        [&mem, &now, &offset](std::uint64_t &ops,
                              std::uint64_t &vcycles) {
            for (int i = 0; i < 256; ++i) {
                now += 1'000;
                vcycles += static_cast<std::uint64_t>(
                    mem.load(0, base + offset, now).latency);
                offset = (offset + 64) % span;
            }
            ops += 256;
        });
}

/**
 * Remap-mode LLC rekeys with a few resident lines. Core 0 loads four
 * lines in turn under a remap period of four ops, so every fourth
 * load rekeys first: both sockets' 12 MiB LLCs are walked, the four
 * resident lines go through the victim paths, and a fresh key is
 * installed. One op = one rekey (four loads); virtual cycles/op is
 * the four loads' latency.
 */
KernelResult
kernelRemapRekey()
{
    SystemConfig cfg = quietConfig();
    cfg.llcIndex = IndexFn::remap;
    cfg.remapPeriod = 4;
    MemorySystem mem(cfg);
    Tick now = 0;
    return measureKernel(
        [&mem, &now](std::uint64_t &ops, std::uint64_t &vcycles) {
            for (int i = 0; i < 16; ++i) {
                for (PAddr a = 0x10'0000; a < 0x10'4000; a += 0x1000) {
                    now += 1'000;
                    vcycles += static_cast<std::uint64_t>(
                        mem.load(0, a, now).latency);
                }
            }
            ops += 16;
        });
}

/**
 * Scheduler step throughput: @p threads threads pinned round-robin
 * over @p cores cores, each looping a load and a 50-cycle spin while
 * striding through a shared 1 MiB buffer from its own offset, so
 * every step is one issue or one resume event. With
 * more threads than cores, the quantum makes the threads of a core
 * take turns. One op = one `stepOne()`; virtual cycles/op is not
 * meaningful here and reported as 0.
 */
KernelResult
kernelSchedStep(int threads, int cores)
{
    SystemConfig cfg = quietConfig();
    cfg.coresPerSocket =
        std::max(cfg.coresPerSocket, cores / cfg.sockets);
    Machine m(cfg);
    Process &p = m.kernel.createProcess("p");
    const VAddr buf = p.mmap(1 << 20);
    for (int i = 0; i < threads; ++i) {
        std::string name = "t";
        name += std::to_string(i);
        m.kernel.spawnThread(
            m.sched, name, i % cores, p,
            [buf, i](ThreadApi api) -> Task {
                VAddr addr = buf + static_cast<VAddr>(i) * 4096;
                for (;;) {
                    co_await api.load(addr);
                    co_await api.spin(50);
                    addr += 64;
                    if (addr >= buf + (1 << 20))
                        addr = buf;
                }
            });
    }
    return measureKernel(
        [&m](std::uint64_t &ops, std::uint64_t &) {
            for (int i = 0; i < 1024; ++i)
                m.sched.stepOne();
            ops += 1024;
        });
}

/**
 * An idle-heavy loader crew: two loaders per socket under a
 * controller that holds LExcl for 2'000 cycles, then idles the crew
 * for 20'000, so three loaders idle all the time and the fourth most
 * of it. One op = one activate/idle toggle; virtual cycles/op is the
 * toggle period.
 */
KernelResult
kernelCrewIdle()
{
    const SystemConfig cfg = quietConfig();
    Machine m(cfg);
    Process &p = m.kernel.createProcess("trojan");
    const VAddr block = p.mmap(pageBytes);
    const ChannelParams params;
    PlacerCrew crew(m.kernel, m.sched, p,
                    {cfg.coreOf(0, 1), cfg.coreOf(0, 2)},
                    {cfg.coreOf(1, 0), cfg.coreOf(1, 1)}, params);
    std::uint64_t toggles = 0;
    m.kernel.spawnThread(
        m.sched, "ctl", cfg.coreOf(0, 0), p,
        [&crew, &toggles, block](ThreadApi api) -> Task {
            for (;;) {
                crew.activate(Combo::localExcl, block);
                co_await api.spin(2'000);
                crew.idle();
                co_await api.spin(20'000);
                ++toggles;
            }
        });
    return measureKernel(
        [&m, &toggles](std::uint64_t &ops, std::uint64_t &vcycles) {
            const std::uint64_t before = toggles;
            const Tick start = m.sched.now();
            m.sched.run(start + 10 * 22'000);
            ops += toggles - before;
            vcycles += m.sched.now() - start;
        });
}

/**
 * Two loader crews sharing their socket-0 loader cores, as two fleet
 * pairs whose blocks wrap onto the same cores do, each under its own
 * controller toggling LExcl on for 2'000 cycles and off for 20'000,
 * half a period apart. Both shared cores hold only idle loaders most
 * of the time. With @p noisy each of them also runs a kernel-build
 * noise agent (64 KiB buffer), as fleet's noise agents share some
 * pairs' loader cores, so the idle loaders take turns with a thread
 * that bursts and sleeps and never parks. One op = one toggle of
 * either crew; virtual cycles/op is half the toggle period.
 */
KernelResult
kernelCrewIdleShared(bool noisy)
{
    const SystemConfig cfg = quietConfig();
    Machine m(cfg);
    Process &p = m.kernel.createProcess("trojan");
    const VAddr block = p.mmap(pageBytes);
    const ChannelParams params;
    const std::vector<CoreId> local = {cfg.coreOf(0, 1), cfg.coreOf(0, 2)};
    if (noisy) {
        // Spawned first, as fleet spawns its noise: the lower ids win
        // the hand-overs their loaders tie with.
        NoiseConfig noise;
        noise.bufferBytes = 64 * 1024;
        spawnNoiseAgents(m, 2, local, noise);
    }
    PlacerCrew a(m.kernel, m.sched, p, local,
                 {cfg.coreOf(1, 0), cfg.coreOf(1, 1)}, params);
    PlacerCrew b(m.kernel, m.sched, p, local,
                 {cfg.coreOf(1, 2), cfg.coreOf(1, 3)}, params);
    std::uint64_t toggles = 0;
    auto controller = [&toggles, block](PlacerCrew &crew, Tick phase) {
        return [&crew, &toggles, block, phase](ThreadApi api) -> Task {
            co_await api.spin(phase);
            for (;;) {
                crew.activate(Combo::localExcl, block);
                co_await api.spin(2'000);
                crew.idle();
                co_await api.spin(20'000);
                ++toggles;
            }
        };
    };
    m.kernel.spawnThread(m.sched, "ctlA", cfg.coreOf(0, 0), p,
                         controller(a, 0));
    m.kernel.spawnThread(m.sched, "ctlB", cfg.coreOf(0, 3), p,
                         controller(b, 11'000));
    return measureKernel(
        [&m, &toggles](std::uint64_t &ops, std::uint64_t &vcycles) {
            const std::uint64_t before = toggles;
            const Tick start = m.sched.now();
            m.sched.run(start + 10 * 22'000);
            ops += toggles - before;
            vcycles += m.sched.now() - start;
        });
}

/**
 * Random loads through the kernel over an 8 MiB mmap, the default
 * noise agent's buffer, as its linking phase issues them: each op
 * resolves the thread's process and the page's frame before the
 * hierarchy serves the line. Virtual time advances past the serve
 * latency, as in `llc_serve_load`. One op = one load.
 */
KernelResult
kernelPageTranslate()
{
    constexpr std::uint64_t bytes = 8 << 20;
    constexpr ThreadId tid = 0;
    MemorySystem mem(quietConfig());
    Kernel kernel(mem);
    Process &p = kernel.createProcess("kernel-build");
    const VAddr buf = p.mmap(bytes);
    kernel.bindThread(tid, p.pid());
    Rng rng(6);
    Tick now = 0;
    return measureKernel(
        [&](std::uint64_t &ops, std::uint64_t &vcycles) {
            for (int i = 0; i < 1024; ++i) {
                now += 500;
                const VAddr addr =
                    buf + rng.below(bytes / lineBytes) * lineBytes;
                vcycles += static_cast<std::uint64_t>(
                    kernel.load(tid, 0, addr, now).latency);
            }
            ops += 1024;
        });
}

/**
 * One KSM scan pass over 128 mergeable pages in each of two
 * processes, pairwise identical. A warm-up pass hashes every page
 * and merges every pair, so each timed pass reads every page's
 * cached hash (PhysMem::contentHash) and finds it already merged.
 * One op = one page scanned; virtual cycles/op is reported as 0.
 * (16 pages per process ran at the same pages/s, so one size covers
 * the scan.)
 */
KernelResult
kernelKsmScan()
{
    constexpr int pages = 128;
    MemorySystem mem(quietConfig());
    Kernel kernel(mem);
    Process &a = kernel.createProcess("a");
    Process &b = kernel.createProcess("b");
    Rng rng(4);
    for (int i = 0; i < pages; ++i) {
        std::vector<std::uint8_t> pattern(pageBytes);
        for (auto &byte : pattern)
            byte = static_cast<std::uint8_t>(rng.next());
        for (Process *proc : {&a, &b}) {
            const VAddr va = proc->mmap(pageBytes);
            proc->writeData(va, pattern);
            proc->madviseMergeable(va, pageBytes);
        }
    }
    std::uint64_t merges = kernel.runKsmScan().size();
    const KernelResult r = measureKernel(
        [&kernel, &merges](std::uint64_t &ops, std::uint64_t &) {
            merges += kernel.runKsmScan().size();
            ops += 2 * pages;
        });
    keepLive(merges);
    return r;
}

/**
 * The edit-distance accuracy metric on a 1024-bit transmission with
 * every 37th bit flipped. One op = one `rawBitAccuracy` call;
 * virtual cycles/op is reported as 0.
 */
KernelResult
kernelEditDistance()
{
    Rng rng(5);
    const BitString sent = randomBits(rng, 1024);
    BitString received = sent;
    for (std::size_t i = 0; i < received.size(); i += 37)
        received[i] ^= 1;
    double accuracy = 0.0;
    const KernelResult r = measureKernel(
        [&](std::uint64_t &ops, std::uint64_t &) {
            accuracy += rawBitAccuracy(sent, received);
            ++ops;
        });
    keepLive(accuracy);
    return r;
}

/**
 * One calibration (50 samples per combo) on a fresh machine: the
 * step every cell without a shared calibration pays. One op = one
 * `calibrate` call; virtual cycles/op is reported as 0.
 */
KernelResult
kernelCalibrate()
{
    const SystemConfig cfg = quietConfig();
    double dram_edges = 0.0;
    const KernelResult r = measureKernel(
        [&](std::uint64_t &ops, std::uint64_t &) {
            dram_edges += calibrate(cfg, 50).dramBand.hi;
            ++ops;
        });
    keepLive(dram_edges);
    return r;
}

/**
 * Build and destroy a default two-socket `Machine`: the set-up every
 * cell pays before it simulates anything. One op = one machine;
 * virtual cycles/op is reported as 0.
 */
KernelResult
kernelMachineBuild()
{
    const SystemConfig cfg;
    std::uint64_t llc_sets = 0;
    const KernelResult r = measureKernel(
        [&](std::uint64_t &ops, std::uint64_t &) {
            const Machine m(cfg);
            llc_sets += m.mem.llcOf(0).numSets();
            ++ops;
        });
    keepLive(llc_sets);
    return r;
}

struct PerfKernel
{
    const char *name;
    KernelResult (*run)();
    /** Re-run with the profiler on for the mem span breakdown. */
    bool profiled;
};

/** Every kernel of the suite, in run and report order. */
const PerfKernel perfKernels[] = {
    {hostRef, kernelHostRef, false},
    {"l1_hit_load", kernelL1HitLoad, true},
    {"llc_serve_load", kernelLlcServeLoad, true},
    {"local_owner_forward", [] { return kernelOwnerForward(1); }, true},
    {"remote_owner_forward", [] { return kernelOwnerForward(6); },
     true},
    {"flush_reload_cycle", kernelFlushReloadCycle, true},
    {"directory_churn", kernelDirectoryChurn, true},
    {"remap_rekey", kernelRemapRekey, false},
    {"sched_step_few", [] { return kernelSchedStep(4, 4); }, false},
    {"sched_step_oversubscribed",
     [] { return kernelSchedStep(48, 16); }, false},
    {"crew_idle", kernelCrewIdle, false},
    {"crew_idle_shared", [] { return kernelCrewIdleShared(false); },
     false},
    {"crew_idle_noisy", [] { return kernelCrewIdleShared(true); },
     false},
    {"page_translate", kernelPageTranslate, false},
    {"ksm_scan", kernelKsmScan, false},
    {"edit_distance", kernelEditDistance, false},
    {"calibrate", kernelCalibrate, false},
    {"machine_build", kernelMachineBuild, false},
};

/**
 * Per-kernel self-profile: re-run each profiled kernel off then on
 * and report the sampled span breakdown plus the enabled-vs-disabled
 * throughput overhead. Runs *after* the gated measurements, so the
 * baseline numbers are never taken with instrumentation live.
 */
struct KernelProfile
{
    std::string name;
    double overhead = 0.0;  //!< profiled-on slowdown (fraction)
    /** Sampled spans: (span name, samples, mean vcycles/sample). */
    std::vector<std::tuple<std::string, std::uint64_t, double>> spans;
};

std::vector<KernelProfile>
profileKernels()
{
    static const char *const span_names[] = {"mem.load", "mem.store",
                                             "mem.flush"};
    std::vector<KernelProfile> out;
    for (const PerfKernel &k : perfKernels) {
        if (!k.profiled)
            continue;
        // The overhead compares a back-to-back off/on pair measured
        // identically (same reps, same budget) — reusing the gated
        // numbers from minutes earlier would fold cache/turbo drift
        // into what should be pure instrumentation cost. Full rep
        // budgets: at short budgets scheduler noise (±10-20%) drowns
        // the sub-5% signal this breakdown exists to report.
        const KernelResult reference = k.run();

        Profiler::setEnabled(true);
        Profiler::instance().reset();
        const KernelResult profiled = k.run();
        const ProfileSnapshot snap = Profiler::instance().snapshot();
        Profiler::setEnabled(false);

        KernelProfile p;
        p.name = k.name;
        if (profiled.opsPerSec > 0.0)
            p.overhead = reference.opsPerSec / profiled.opsPerSec - 1.0;
        for (const char *span : span_names) {
            const SpanStats s = snap.totalOf(span);
            if (s.count == 0)
                continue;
            p.spans.emplace_back(
                span, s.count,
                static_cast<double>(s.vcycles) /
                    static_cast<double>(s.count));
        }
        out.push_back(std::move(p));
    }
    return out;
}

Json
toJson(const std::vector<KernelResult> &results)
{
    Json root = Json::object();
    root["schema"] = "cohersim.perf.v1";
    Json &kernels = root["kernels"];
    kernels = Json::array();
    for (const KernelResult &r : results) {
        Json k = Json::object();
        k["name"] = r.name;
        k["ops_per_sec"] = r.opsPerSec;
        k["cycles_per_op"] = r.cyclesPerOp;
        k["ops"] = r.ops;
        k["seconds"] = r.seconds;
        kernels.push(std::move(k));
    }
    return root;
}

double
baselineOpsPerSec(const Json &baseline, const std::string &name)
{
    const Json *kernels = baseline.find("kernels");
    if (!kernels)
        return 0.0;
    for (const Json &k : kernels->items()) {
        const Json *kname = k.find("name");
        const Json *ops = k.find("ops_per_sec");
        if (kname && ops && kname->asString() == name)
            return ops->asDouble();
    }
    return 0.0;
}

/**
 * Gate @p now against @p baseline: scale every baseline figure by the
 * measured host_ref ratio, then fail any kernel slower than
 * (1 - tolerance) of its scaled baseline, and any baseline kernel
 * missing from @p now.
 */
int
checkAgainstBaseline(const std::vector<KernelResult> &now,
                     const Json &baseline)
{
    const auto measured = [&now](const std::string &name) {
        return std::find_if(now.begin(), now.end(),
                            [&name](const KernelResult &r) {
                                return r.name == name;
                            });
    };
    const double scale = measured(hostRef)->opsPerSec /
        baselineOpsPerSec(baseline, hostRef);
    std::cout << "\nhost_ref scale vs baseline: "
              << TablePrinter::num(scale, 3) << "x; tolerance "
              << TablePrinter::pct(tolerance) << "\n\n";

    TablePrinter table;
    table.row({"kernel", "baseline ops/s", "scaled floor",
               "now ops/s", "ratio", "status"});
    int failures = 0;
    for (const KernelResult &r : now) {
        if (r.name == hostRef)
            continue;
        const double base_ops = baselineOpsPerSec(baseline, r.name);
        if (base_ops <= 0.0) {
            table.row({r.name, "-", "-",
                       TablePrinter::num(r.opsPerSec, 0), "-",
                       "NEW (no baseline)"});
            continue;
        }
        const double floor = base_ops * scale * (1.0 - tolerance);
        const double ratio = r.opsPerSec / (base_ops * scale);
        const bool ok = r.opsPerSec >= floor;
        if (!ok)
            ++failures;
        table.row({r.name, TablePrinter::num(base_ops, 0),
                   TablePrinter::num(floor, 0),
                   TablePrinter::num(r.opsPerSec, 0),
                   TablePrinter::num(ratio, 2) + "x",
                   ok ? "ok" : "REGRESSION"});
    }
    for (const Json &k : baseline.find("kernels")->items()) {
        const Json *kname = k.find("name");
        if (!kname || measured(kname->asString()) != now.end())
            continue;
        ++failures;
        table.row({kname->asString(),
                   TablePrinter::num(
                       baselineOpsPerSec(baseline, kname->asString()),
                       0),
                   "-", "-", "-", "GONE (not in this run)"});
    }
    table.print(std::cout);
    if (failures > 0) {
        std::cout << "\n" << failures
                  << " kernel(s) regressed beyond tolerance or gone\n";
        return 1;
    }
    std::cout << "\nall kernels within tolerance\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace csim;

    std::string json_path = "BENCH_perf.json";
    std::string baseline_path;
    const char *const usage =
        "usage: perf_suite [--json PATH] [--check BASELINE.json]\n";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--check" && i + 1 < argc) {
            baseline_path = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            std::cout << usage;
            return 0;
        } else {
            std::cerr << "perf_suite: bad argument " << arg << "\n"
                      << usage;
            return 2;
        }
    }

    // Read the baseline before timing anything, so a bad one costs
    // milliseconds, not a full run.
    Json baseline;
    if (!baseline_path.empty()) {
        try {
            baseline = readJsonFile(baseline_path);
        } catch (const std::runtime_error &e) {
            std::cerr << "perf_suite: " << e.what() << "\n";
            return 2;
        }
        if (baselineOpsPerSec(baseline, hostRef) <= 0.0) {
            std::cerr << "perf_suite: " << baseline_path
                      << " lacks the host_ref kernel; cannot "
                         "normalise\n";
            return 2;
        }
    }

    std::cout << "== CoherSim per-layer performance suite ==\n\n";

    std::vector<KernelResult> results;
    for (const PerfKernel &k : perfKernels) {
        results.push_back(k.run());
        results.back().name = k.name;
    }

    TablePrinter table;
    table.row({"kernel", "ops/sec", "ns/op", "virt cycles/op"});
    for (const KernelResult &r : results) {
        table.row({r.name, TablePrinter::num(r.opsPerSec, 0),
                   TablePrinter::num(1e9 / r.opsPerSec, 1),
                   TablePrinter::num(r.cyclesPerOp, 1)});
    }
    table.print(std::cout);

    // Per-kernel span breakdown (profiler on, sampled 1/stride).
    const std::vector<KernelProfile> profiles = profileKernels();
    std::cout << "\nself-profile (sample stride "
              << Profiler::sampleStride << "):\n";
    TablePrinter prof_table;
    prof_table.row({"kernel", "overhead", "span", "samples",
                    "virt cycles/sample"});
    for (const KernelProfile &p : profiles) {
        bool first = true;
        for (const auto &[span, samples, vc] : p.spans) {
            prof_table.row(
                {first ? p.name : "",
                 first ? TablePrinter::pct(p.overhead) : "", span,
                 std::to_string(samples), TablePrinter::num(vc, 1)});
            first = false;
        }
        if (first)
            prof_table.row({p.name, TablePrinter::pct(p.overhead),
                            "-", "-", "-"});
    }
    prof_table.print(std::cout);

    Json doc = toJson(results);
    Json prof_json = Json::array();
    for (const KernelProfile &p : profiles) {
        Json k = Json::object();
        k["name"] = p.name;
        k["overhead"] = p.overhead;
        Json spans = Json::array();
        for (const auto &[span, samples, vc] : p.spans) {
            Json s = Json::object();
            s["span"] = span;
            s["samples"] = samples;
            s["vcycles_per_sample"] = vc;
            spans.push(std::move(s));
        }
        k["spans"] = std::move(spans);
        prof_json.push(std::move(k));
    }
    doc["profile"] = std::move(prof_json);
    writeJsonFile(json_path, doc);
    std::cout << "\n[" << json_path << " written]\n";

    if (!baseline_path.empty())
        return checkAgainstBaseline(results, baseline);
    return 0;
}
