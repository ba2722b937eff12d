/**
 * @file
 * google-benchmark micro-benchmarks of the simulator's primitives:
 * coherence protocol service paths, flushes, KSM scanning and the
 * edit-distance metric. Scheduler throughput is timed by perf_suite.
 */

#include <benchmark/benchmark.h>

#include "cohersim/attack.hh"

namespace
{

using namespace csim;

SystemConfig
quietConfig()
{
    SystemConfig cfg;
    cfg.timing.jitterSd = 0.0;
    cfg.timing.longTailProb = 0.0;
    cfg.seed = 3;
    return cfg;
}

void
BM_LoadL1Hit(benchmark::State &state)
{
    MemorySystem mem(quietConfig());
    mem.load(0, 0x1000, 0);
    Tick now = 100;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mem.load(0, 0x1000, now));
        now += 10;
    }
}
BENCHMARK(BM_LoadL1Hit);

void
BM_LoadOwnerForward(benchmark::State &state)
{
    MemorySystem mem(quietConfig());
    Tick now = 0;
    for (auto _ : state) {
        mem.flush(0, 0x1000, now);
        mem.load(0, 0x1000, now + 100);     // E at core 0
        benchmark::DoNotOptimize(
            mem.load(1, 0x1000, now + 600)); // forward
        now += 1'000;
    }
}
BENCHMARK(BM_LoadOwnerForward);

void
BM_LoadLlcServe(benchmark::State &state)
{
    MemorySystem mem(quietConfig());
    constexpr PAddr base = 0x10'0000;
    constexpr PAddr span = 1 << 20;  // > L2, < LLC: steady LLC serve
    Tick now = 0;
    for (PAddr a = 0; a < span; a += 64) {
        now += 500;
        mem.load(0, base + a, now);
    }
    PAddr offset = 0;
    for (auto _ : state) {
        now += 500;
        benchmark::DoNotOptimize(mem.load(0, base + offset, now));
        offset = (offset + 64) % span;
    }
}
BENCHMARK(BM_LoadLlcServe);

void
BM_RemoteOwnerForward(benchmark::State &state)
{
    MemorySystem mem(quietConfig());
    Tick now = 0;
    for (auto _ : state) {
        mem.flush(0, 0x1000, now);
        mem.load(0, 0x1000, now + 100);      // E at core 0
        benchmark::DoNotOptimize(
            mem.load(6, 0x1000, now + 600)); // cross-socket forward
        now += 1'000;
    }
}
BENCHMARK(BM_RemoteOwnerForward);

void
BM_DirectoryChurn(benchmark::State &state)
{
    MemorySystem mem(quietConfig());
    constexpr PAddr base = 0x100'0000;
    constexpr PAddr span = 24u << 20;  // 2x the LLC: constant churn
    Tick now = 0;
    for (PAddr a = 0; a < span; a += 64) {
        now += 1'000;
        mem.load(0, base + a, now);
    }
    PAddr offset = 0;
    for (auto _ : state) {
        now += 1'000;
        benchmark::DoNotOptimize(mem.load(0, base + offset, now));
        offset = (offset + 64) % span;
    }
}
BENCHMARK(BM_DirectoryChurn);

void
BM_FlushReloadRound(benchmark::State &state)
{
    MemorySystem mem(quietConfig());
    Tick now = 0;
    for (auto _ : state) {
        mem.flush(0, 0x2000, now);
        benchmark::DoNotOptimize(mem.load(0, 0x2000, now + 100));
        now += 1'000;
    }
}
BENCHMARK(BM_FlushReloadRound);

void
BM_KsmScan(benchmark::State &state)
{
    const auto pages = static_cast<std::uint64_t>(state.range(0));
    MemorySystem mem(quietConfig());
    Kernel kernel(mem);
    Process &a = kernel.createProcess("a");
    Process &b = kernel.createProcess("b");
    Rng rng(4);
    for (std::uint64_t i = 0; i < pages; ++i) {
        std::vector<std::uint8_t> pattern(pageBytes);
        for (auto &byte : pattern)
            byte = static_cast<std::uint8_t>(rng.next());
        for (Process *proc : {&a, &b}) {
            const VAddr va = proc->mmap(pageBytes);
            proc->writeData(va, pattern);
            proc->madviseMergeable(va, pageBytes);
        }
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(kernel.runKsmScan());
    state.SetItemsProcessed(state.iterations() * pages * 2);
}
BENCHMARK(BM_KsmScan)->Arg(16)->Arg(128);

void
BM_EditDistance(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(5);
    const BitString a = randomBits(rng, n);
    BitString b = a;
    for (std::size_t i = 0; i < n; i += 37)
        b[i] ^= 1;
    for (auto _ : state)
        benchmark::DoNotOptimize(rawBitAccuracy(a, b));
}
BENCHMARK(BM_EditDistance)->Arg(128)->Arg(1024);

void
BM_Calibration(benchmark::State &state)
{
    const SystemConfig cfg = quietConfig();
    for (auto _ : state)
        benchmark::DoNotOptimize(calibrate(cfg, 50));
}
BENCHMARK(BM_Calibration)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
