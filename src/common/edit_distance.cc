#include "common/edit_distance.hh"

#include <algorithm>

namespace csim
{

double
rawBitAccuracy(const BitString &sent, const BitString &received)
{
    if (sent.empty())
        return received.empty() ? 1.0 : 0.0;
    const std::size_t dist = editDistance(sent, received);
    const double acc =
        1.0 - static_cast<double>(dist) / static_cast<double>(
                                              sent.size());
    return std::max(0.0, acc);
}

} // namespace csim
