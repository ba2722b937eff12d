#include "phy/interleave.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"

namespace csim
{

std::vector<std::size_t>
interleavePermutation(std::size_t n, int depth)
{
    panic_if(depth < 1, "interleaver depth must be >= 1");
    std::vector<std::size_t> perm(n);
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    const auto d = static_cast<std::size_t>(depth);
    // Column-major read-out of a row-major write-in: order positions
    // by (row, column). stable_sort keeps equal keys (same row) in
    // column order, which is their original order within the row.
    std::stable_sort(perm.begin(), perm.end(),
                     [d](std::size_t a, std::size_t b) {
        return a % d < b % d;
    });
    return perm;
}

BitString
interleaveBits(const BitString &in, int depth)
{
    const std::vector<std::size_t> perm =
        interleavePermutation(in.size(), depth);
    BitString out(in.size());
    for (std::size_t k = 0; k < in.size(); ++k)
        out[k] = in[perm[k]];
    return out;
}

} // namespace csim
