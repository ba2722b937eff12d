/**
 * @file
 * Block interleaving: write the frame body row-major into a
 * depth-row matrix and read it out column-major, so a burst of up to
 * `depth` consecutive wire-bit errors (one noise eviction shearing a
 * few samples) lands in `depth` different FEC codewords instead of
 * overwhelming one.
 *
 * The permutation is defined positionally for any length (no
 * padding): position i maps by its (row = i % depth, column =
 * i / depth) coordinates, ordered row-major on read-out. Both
 * directions are exact inverses for every (length, depth) pair.
 */

#ifndef COHERSIM_PHY_INTERLEAVE_HH
#define COHERSIM_PHY_INTERLEAVE_HH

#include <cstddef>
#include <vector>

#include "common/bit_string.hh"

namespace csim
{

/**
 * The interleaver permutation: out[k] = in[perm[k]] produces the
 * wire order from the codeword order.
 */
std::vector<std::size_t> interleavePermutation(std::size_t n,
                                               int depth);

/** Codeword order -> wire order. */
BitString interleaveBits(const BitString &in, int depth);

/**
 * Wire order -> codeword order, the exact inverse of interleaveBits,
 * for any element type (the spy deinterleaves soft bits, not hard
 * ones).
 */
template <typename T>
std::vector<T>
deinterleave(const std::vector<T> &in, int depth)
{
    const std::vector<std::size_t> perm =
        interleavePermutation(in.size(), depth);
    std::vector<T> out(in.size());
    for (std::size_t k = 0; k < in.size(); ++k)
        out[perm[k]] = in[k];
    return out;
}

} // namespace csim

#endif // COHERSIM_PHY_INTERLEAVE_HH
