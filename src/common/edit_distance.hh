/**
 * @file
 * Levenshtein edit distance between bit strings.
 *
 * The paper's raw-bit accuracy accounts for three reception error
 * modes: lost bits, duplicated bits and flipped bits (§VIII-B). Edit
 * distance with unit insert/delete/substitute costs captures exactly
 * these, so raw accuracy = 1 - distance / transmitted length.
 */

#ifndef COHERSIM_COMMON_EDIT_DISTANCE_HH
#define COHERSIM_COMMON_EDIT_DISTANCE_HH

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

#include "common/bit_string.hh"

namespace csim
{

/**
 * Unit-cost Levenshtein distance between two sequences whose
 * elements @p eq compares: bit strings, key names, received-bit
 * records. One-row dynamic program; O(|a|*|b|) time, O(|b|) space.
 */
template <typename SeqA, typename SeqB, typename Eq = std::equal_to<>>
std::size_t
editDistance(const SeqA &a, const SeqB &b, Eq eq = {})
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t sub = diag + (eq(a[i - 1], b[j - 1]) ? 0 : 1);
            diag = row[j];
            row[j] = std::min({row[j - 1] + 1, row[j] + 1, sub});
        }
    }
    return row[b.size()];
}

/**
 * Raw bit accuracy as defined in the paper: the fraction of
 * transmitted raw bits correctly recovered by the spy.
 *
 * @param sent bits the trojan transmitted.
 * @param received bits the spy decoded.
 * @return value in [0, 1]; 1 when received == sent.
 */
double rawBitAccuracy(const BitString &sent, const BitString &received);

} // namespace csim

#endif // COHERSIM_COMMON_EDIT_DISTANCE_HH
