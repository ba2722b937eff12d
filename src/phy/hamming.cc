#include "phy/hamming.hh"

#include <array>
#include <bit>

#include "common/logging.hh"

namespace csim
{

namespace
{

/** (7,4) generator rows for the parity bits p0..p2 (data masks). */
constexpr std::array<std::uint8_t, 3> parityMask = {
    0b1101,  // p0 = d3 ^ d2 ^ d0
    0b1011,  // p1 = d3 ^ d1 ^ d0
    0b0111,  // p2 = d2 ^ d1 ^ d0
};

/** (7,4) codeword of a nibble, bit 6 = d3 ... bit 0 = p2. */
constexpr std::uint8_t
word74(std::uint8_t nibble)
{
    std::uint8_t w = static_cast<std::uint8_t>((nibble & 0xf) << 3);
    for (std::size_t i = 0; i < parityMask.size(); ++i) {
        const int p =
            std::popcount(
                static_cast<unsigned>(nibble & parityMask[i])) &
            1;
        w = static_cast<std::uint8_t>(w | (p << (2 - i)));
    }
    return w;
}

/** (8,4) codeword, bit 7 = d3 ... bit 0 = overall parity. */
constexpr std::uint8_t
word84(std::uint8_t nibble)
{
    const std::uint8_t w7 = word74(nibble);
    const int q = std::popcount(static_cast<unsigned>(w7)) & 1;
    return static_cast<std::uint8_t>((w7 << 1) | q);
}

/** The 16 (8,4) codewords, indexed by nibble. */
constexpr std::array<std::uint8_t, 16> table84 = [] {
    std::array<std::uint8_t, 16> t{};
    for (std::uint8_t n = 0; n < 16; ++n)
        t[n] = word84(n);
    return t;
}();

std::uint8_t
packBits(const BitString &bits, std::size_t n)
{
    panic_if(bits.size() != n, "hamming: expected ", n,
             " bits, got ", bits.size());
    std::uint8_t w = 0;
    for (std::size_t i = 0; i < n; ++i)
        w = static_cast<std::uint8_t>((w << 1) | (bits[i] & 1));
    return w;
}

BitString
unpackBits(std::uint8_t w, std::size_t n)
{
    BitString bits(n);
    for (std::size_t i = 0; i < n; ++i)
        bits[i] = (w >> (n - 1 - i)) & 1;
    return bits;
}

/**
 * Nearest codeword by Hamming distance; 16 candidates make the
 * exhaustive scan both trivially correct and trivially fast.
 */
std::pair<std::uint8_t, int>
nearest(const std::array<std::uint8_t, 16> &table, std::uint8_t w)
{
    std::uint8_t best = 0;
    int best_dist = 9;
    for (std::uint8_t n = 0; n < 16; ++n) {
        const int d =
            std::popcount(static_cast<unsigned>(table[n] ^ w));
        if (d < best_dist) {
            best_dist = d;
            best = n;
        }
    }
    return {best, best_dist};
}

} // namespace

BitString
hammingEncode84(std::uint8_t nibble)
{
    return unpackBits(table84[nibble & 0xf], 8);
}

std::optional<std::uint8_t>
hammingDecode84(const BitString &bits, FecOutcome *outcome)
{
    const std::uint8_t w = packBits(bits, 8);
    const auto [nibble, dist] = nearest(table84, w);
    if (dist == 0) {
        if (outcome)
            *outcome = FecOutcome::clean;
        return nibble;
    }
    if (dist == 1) {
        if (outcome)
            *outcome = FecOutcome::corrected;
        return nibble;
    }
    // Distance >= 2 from every codeword: with minimum distance 4
    // this is exactly the detected-double-error region.
    if (outcome)
        *outcome = FecOutcome::uncorrectable;
    return std::nullopt;
}

std::uint8_t
hammingDecodeSoft(const SoftBit *bits, FecOutcome *outcome)
{
    std::uint8_t hard = 0;
    for (std::size_t i = 0; i < hammingCodeBits; ++i) {
        hard = static_cast<std::uint8_t>((hard << 1) |
                                         (bits[i].bit & 1));
    }
    std::uint8_t best = 0;
    double best_score = -1e18;
    for (std::uint8_t n = 0; n < 16; ++n) {
        double score = 0.0;
        for (std::size_t i = 0; i < hammingCodeBits; ++i) {
            const std::uint8_t code_bit =
                (table84[n] >> (hammingCodeBits - 1 - i)) & 1;
            score += code_bit == (bits[i].bit & 1)
                         ? bits[i].confidence
                         : -bits[i].confidence;
        }
        // Strict improvement keeps ties on the lowest nibble, so the
        // decode is deterministic for every input.
        if (score > best_score) {
            best_score = score;
            best = n;
        }
    }
    if (outcome) {
        *outcome = table84[best] == hard ? FecOutcome::clean
                                         : FecOutcome::corrected;
    }
    return best;
}

} // namespace csim
