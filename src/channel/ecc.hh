/**
 * @file
 * The packet codec of the paper's error detection and
 * retransmission scheme (§VIII-C, Figure 10).
 *
 * The payload is sent in 64-byte packets carrying 16 parity bits
 * (one even-parity bit per 4-byte chunk) plus a small sequence
 * header. After each packet the roles briefly reverse: if the spy
 * detected a parity error it transmits a NACK by caching block B
 * during the trojan's acknowledgement window; the trojan then
 * retransmits. The scheme guarantees (near-)complete bit recovery at
 * the cost of retransmission and acknowledgement overhead. The
 * session itself is the PHY session's parity chain
 * (phy/phy_channel.cc), which runTransmission runs under
 * phy.profile = legacy-parity.
 */

#ifndef COHERSIM_CHANNEL_ECC_HH
#define COHERSIM_CHANNEL_ECC_HH

#include <cstdint>
#include <optional>
#include <utility>

#include "common/bit_string.hh"

namespace csim
{

/** @name Packet codec */
/** @{ */
/** Data bits per packet (64 bytes, paper §VIII-C). */
inline constexpr std::size_t packetDataBits = 512;
/** Parity bits per packet (one per 4-byte chunk). */
inline constexpr std::size_t packetParityBits = 16;
/** Header: sequence byte plus its complement. */
inline constexpr std::size_t packetHeaderBits = 16;
/** Total packet size on the wire. */
inline constexpr std::size_t packetTotalBits =
    packetHeaderBits + packetDataBits + packetParityBits;

/** Even-parity bits, one per 32-bit chunk of @p data. */
BitString parityBits(const BitString &data);

/** Frame a packet: header(seq) + data + parity. */
BitString encodePacket(std::uint8_t seq, const BitString &data512);

/**
 * Parse and verify a packet. @return (seq, data) when the header is
 * consistent and every parity bit matches; nullopt otherwise.
 */
std::optional<std::pair<std::uint8_t, BitString>>
decodePacket(const BitString &bits);
/** @} */

} // namespace csim

#endif // COHERSIM_CHANNEL_ECC_HH
