/**
 * @file
 * Sample collection and summary statistics used by calibration and the
 * benchmark harnesses (percentiles, means, histograms).
 */

#ifndef COHERSIM_COMMON_STATS_HH
#define COHERSIM_COMMON_STATS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace csim
{

/**
 * A collection of scalar samples (e.g. load latencies in cycles) with
 * summary queries. Samples are stored verbatim; queries sort lazily.
 */
class SampleSet
{
  public:
    /** Add one sample. */
    void add(double v);

    /** Number of samples collected. */
    std::size_t count() const { return samples_.size(); }

    /** Arithmetic mean; 0 if empty. */
    double mean() const;

    /**
     * Percentile via nearest-rank on the sorted samples.
     *
     * @param p percentile in [0, 100].
     */
    double percentile(double p) const;

    /** Median (50th percentile). */
    double median() const { return percentile(50.0); }

    /** Raw access for custom processing. */
    const std::vector<double> &values() const { return samples_; }

  private:
    void ensureSorted() const;

    std::vector<double> samples_;
    mutable std::vector<double> sorted_;
    mutable bool sortedValid_ = false;
};

/**
 * Fixed-width bucket histogram over [lo, hi); out-of-range samples are
 * clamped into the first/last bucket.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t buckets);

    void add(double v);

    std::size_t bucketCount() const { return counts_.size(); }
    std::uint64_t bucketValue(std::size_t i) const { return counts_[i]; }
    std::uint64_t total() const { return total_; }

    /** Render a one-line ASCII sparkline of the histogram. */
    std::string sparkline() const;

  private:
    double lo_;
    double hi_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

} // namespace csim

#endif // COHERSIM_COMMON_STATS_HH
