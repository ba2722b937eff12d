#include "obs/vector_bands.hh"

#include "channel/vector.hh"

namespace csim
{

VectorBandInfo
vectorBandInfo(VectorKind k)
{
    switch (k) {
      case VectorKind::coherence:
        return {"communication", "boundary",
                "load latency vs. the Fig. 2 combo bands"};
      case VectorKind::dirty:
        return {"dirty-flush", "clean-flush",
                "clflush latency: M writes back, E does not"};
      case VectorKind::lru:
        return {"evicted", "resident",
                "target reload latency: DRAM refill vs. LLC hit"};
      case VectorKind::pagefault:
        return {"cow-fault", "plain-store",
                "store latency: copy-on-write split vs. write hit"};
      case VectorKind::coherence2bit:
        return {"symbol", "quiet",
                "load latency vs. all four Fig. 2 combo bands"};
    }
    return {"action", "idle", "?"};
}

void
seedVectorBands(RunHealthMonitor &monitor, VectorKind k,
                const CalibrationResult &cal)
{
    switch (k) {
      case VectorKind::coherence:
      case VectorKind::coherence2bit:
        monitor.setBands(cal);
        return;
      case VectorKind::lru:
        // The action symbol is a DRAM refill of the probed target;
        // the idle (LLC-hit) reload and the other vectors' flush
        // and store timings never surface as memLoad latencies.
        monitor.setBand(dramBandSlot, actionBand(cal).lo,
                        actionBand(cal).hi);
        return;
      case VectorKind::dirty:
      case VectorKind::pagefault:
        return;
    }
}

} // namespace csim
