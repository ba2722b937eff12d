#include "obs/histogram.hh"

#include <bit>

#include "common/logging.hh"

namespace csim
{

LogHistogram::LogHistogram(int sub_bits) : subBits_(sub_bits)
{
    fatal_if(sub_bits < 0 || sub_bits > 16,
             "histogram sub_bits must be in [0, 16], got ",
             sub_bits);
}

std::size_t
LogHistogram::bucketIndex(std::uint64_t value) const
{
    const std::uint64_t linear = 1ULL << subBits_;
    if (value < linear)
        return static_cast<std::size_t>(value);
    // exp = position of the top bit; shift drops the value onto
    // subBits_ significant bits, giving 2^subBits_ linear
    // sub-buckets per power-of-two range.
    const int exp = std::bit_width(value) - 1;
    const int shift = exp - subBits_;
    return static_cast<std::size_t>(
        ((static_cast<std::uint64_t>(shift) + 1) << subBits_) +
        (value >> shift) - linear);
}

std::uint64_t
LogHistogram::bucketLow(std::size_t index) const
{
    const std::uint64_t linear = 1ULL << subBits_;
    const std::uint64_t hi = index >> subBits_;
    if (hi == 0)
        return index;
    const std::uint64_t rem = index & (linear - 1);
    const int shift = static_cast<int>(hi) - 1;
    return (rem + linear) << shift;
}

std::uint64_t
LogHistogram::bucketMid(std::size_t index) const
{
    const std::uint64_t hi = index >> subBits_;
    if (hi == 0)
        return index;  // exact range: width 1
    const std::uint64_t width = 1ULL << (hi - 1);
    return bucketLow(index) + width / 2;
}

void
LogHistogram::record(std::uint64_t value)
{
    const std::size_t idx = bucketIndex(value);
    if (idx >= buckets_.size())
        buckets_.resize(idx + 1, 0);
    ++buckets_[idx];
    ++count_;
    sum_ += value;
    if (value < min_)
        min_ = value;
    if (value > max_)
        max_ = value;
}

void
LogHistogram::merge(const LogHistogram &other)
{
    fatal_if(subBits_ != other.subBits_,
             "merging histograms with different sub_bits (",
             subBits_, " vs ", other.subBits_, ")");
    if (other.buckets_.size() > buckets_.size())
        buckets_.resize(other.buckets_.size(), 0);
    for (std::size_t i = 0; i < other.buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.count_) {
        if (other.min_ < min_)
            min_ = other.min_;
        if (other.max_ > max_)
            max_ = other.max_;
    }
}

double
LogHistogram::mean() const
{
    return count_ ? static_cast<double>(sum_) /
                        static_cast<double>(count_)
                  : 0.0;
}

std::uint64_t
LogHistogram::percentile(double q) const
{
    if (count_ == 0)
        return 0;
    if (q <= 0.0)
        return min();
    if (q >= 100.0)
        return max();
    // Integer rank: the ceiling of q% of the count, at least 1.
    // (q * count) stays well inside double's exact-integer range
    // for any realistic sample count.
    const double target = q * static_cast<double>(count_) / 100.0;
    std::uint64_t rank = static_cast<std::uint64_t>(target);
    if (static_cast<double>(rank) < target)
        ++rank;
    if (rank < 1)
        rank = 1;
    if (rank > count_)
        rank = count_;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        seen += buckets_[i];
        if (seen >= rank) {
            std::uint64_t v = bucketMid(i);
            if (v < min_)
                v = min_;
            if (v > max_)
                v = max_;
            return v;
        }
    }
    return max();
}

} // namespace csim
