/**
 * @file
 * Streaming log-bucketed latency histogram (HDR-histogram style).
 *
 * Values below 2^subBits are exact; above that, each power-of-two
 * range is split into 2^subBits linear sub-buckets, bounding the
 * relative quantization error at 2^-subBits. Bucketing is pure
 * integer arithmetic (no libm), so identical sample streams produce
 * bit-identical histograms on every platform — a requirement for the
 * `--jobs`-independent health reports and the golden gate.
 */

#ifndef COHERSIM_OBS_HISTOGRAM_HH
#define COHERSIM_OBS_HISTOGRAM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace csim
{

/** Streaming histogram over uint64 values (latencies in cycles). */
class LogHistogram
{
  public:
    explicit LogHistogram(int sub_bits = 5);

    void record(std::uint64_t value);

    /** Sum another histogram into this one (same sub_bits). */
    void merge(const LogHistogram &other);

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    /** Smallest / largest recorded value; 0 when empty. */
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return count_ ? max_ : 0; }
    double mean() const;

    /**
     * Value at quantile @p q in [0, 100]: the representative
     * (midpoint) value of the first bucket whose cumulative count
     * reaches q% of the total, clamped to the exact min/max.
     * Deterministic integer arithmetic throughout.
     */
    std::uint64_t percentile(double q) const;

    int subBits() const { return subBits_; }

    /** Index of the bucket holding @p value. */
    std::size_t bucketIndex(std::uint64_t value) const;
    /** Lower edge of bucket @p index. */
    std::uint64_t bucketLow(std::size_t index) const;
    /** Representative (mid) value of bucket @p index. */
    std::uint64_t bucketMid(std::size_t index) const;

    /** Occupied bucket count (for tests / exports). */
    const std::vector<std::uint64_t> &buckets() const
    {
        return buckets_;
    }

  private:
    int subBits_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~0ULL;
    std::uint64_t max_ = 0;
    std::vector<std::uint64_t> buckets_;  //!< grown on demand
};

} // namespace csim

#endif // COHERSIM_OBS_HISTOGRAM_HH
