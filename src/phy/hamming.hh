/**
 * @file
 * Hamming codec for the FEC stage: the extended (8,4) SECDED form of
 * the classic (7,4) code (an overall parity bit raises the distance
 * from 3 to 4: corrects any single error and *detects* any double
 * error). Every payload nibble costs one byte on the wire, and the
 * soft decoder runs maximum-likelihood correlation over the 16
 * codewords using the spy's per-bit confidences.
 *
 * Codewords are systematic: bits [0..3] are the data nibble (MSB
 * first), bits [4..6] the Hamming parity, bit [7] the overall
 * parity. The codecs are pure functions over a small table, so the
 * tests enumerate them exhaustively.
 */

#ifndef COHERSIM_PHY_HAMMING_HH
#define COHERSIM_PHY_HAMMING_HH

#include <cstdint>
#include <optional>

#include "common/bit_string.hh"

namespace csim
{

/** Wire bits per (8,4) codeword. */
inline constexpr std::size_t hammingCodeBits = 8;
/** Data bits per codeword (one nibble). */
inline constexpr std::size_t hammingDataBits = 4;

/** One received wire bit with the demapper's confidence. */
struct SoftBit
{
    std::uint8_t bit = 0;
    /** Decision confidence in [0, 1]; 0 = coin toss, 1 = certain. */
    double confidence = 1.0;
};

/** What a hard-decision decode concluded. */
enum class FecOutcome : std::uint8_t
{
    clean,          //!< codeword received intact
    corrected,      //!< single error corrected
    uncorrectable,  //!< double error detected (SECDED) / garbled
};

/**
 * Encode a nibble into 8 bits: the (7,4) word [d3 d2 d1 d0 p0 p1 p2]
 * plus overall parity.
 */
BitString hammingEncode84(std::uint8_t nibble);

/**
 * Hard-decision (8,4) SECDED decode: corrects a single error,
 * returns nullopt on a detected double error.
 */
std::optional<std::uint8_t>
hammingDecode84(const BitString &bits, FecOutcome *outcome = nullptr);

/**
 * Soft-decision (8,4) decode: maximum-likelihood over the 16
 * codewords, scoring each by the confidence-weighted correlation
 * with the received bits (agreeing bit: +confidence; disagreeing:
 * -confidence). Always returns a nibble — soft decoding has no
 * detect-only region; a genuinely hopeless codeword simply decodes
 * to the least-wrong candidate. @p bits must hold hammingCodeBits
 * entries. @p outcome reports clean/corrected relative to the hard
 * bit decisions.
 */
std::uint8_t hammingDecodeSoft(const SoftBit *bits,
                               FecOutcome *outcome = nullptr);

} // namespace csim

#endif // COHERSIM_PHY_HAMMING_HH
