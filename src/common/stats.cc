#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/logging.hh"

namespace csim
{

void
SampleSet::add(double v)
{
    samples_.push_back(v);
    sortedValid_ = false;
}

double
SampleSet::mean() const
{
    if (samples_.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : samples_)
        sum += v;
    return sum / samples_.size();
}

void
SampleSet::ensureSorted() const
{
    if (!sortedValid_) {
        sorted_ = samples_;
        std::sort(sorted_.begin(), sorted_.end());
        sortedValid_ = true;
    }
}

double
SampleSet::percentile(double p) const
{
    panic_if(p < 0.0 || p > 100.0, "percentile out of range: ", p);
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    if (p <= 0.0)
        return sorted_.front();
    // Nearest-rank definition.
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * sorted_.size()));
    return sorted_[std::min(rank, sorted_.size()) - 1];
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0)
{
    panic_if(buckets == 0, "Histogram needs at least one bucket");
    panic_if(hi <= lo, "Histogram range is empty: [", lo, ", ", hi, ")");
}

void
Histogram::add(double v)
{
    const double width = (hi_ - lo_) / counts_.size();
    auto idx = static_cast<std::int64_t>((v - lo_) / width);
    idx = std::clamp<std::int64_t>(idx, 0,
                                   static_cast<std::int64_t>(
                                       counts_.size()) - 1);
    ++counts_[static_cast<std::size_t>(idx)];
    ++total_;
}

std::string
Histogram::sparkline() const
{
    static const char levels[] = " .:-=+*#%@";
    std::uint64_t peak = 0;
    for (auto c : counts_)
        peak = std::max(peak, c);
    std::string out;
    out.reserve(counts_.size());
    for (auto c : counts_) {
        if (peak == 0) {
            out.push_back(' ');
        } else {
            const std::size_t lvl = (c * 9 + peak - 1) / peak;
            out.push_back(levels[std::min<std::size_t>(lvl, 9)]);
        }
    }
    return out;
}

} // namespace csim
