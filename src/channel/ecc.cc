#include "channel/ecc.hh"

#include "common/logging.hh"

namespace csim
{

BitString
parityBits(const BitString &data)
{
    panic_if(data.size() != packetDataBits,
             "parity expects ", packetDataBits, " data bits");
    BitString parity;
    parity.reserve(packetParityBits);
    constexpr std::size_t chunk = 32;
    for (std::size_t c = 0; c < packetParityBits; ++c) {
        std::uint8_t p = 0;
        for (std::size_t i = 0; i < chunk; ++i)
            p ^= data[c * chunk + i] & 1;
        parity.push_back(p);
    }
    return parity;
}

BitString
encodePacket(std::uint8_t seq, const BitString &data512)
{
    panic_if(data512.size() != packetDataBits,
             "packet data must be ", packetDataBits, " bits");
    BitString out;
    out.reserve(packetTotalBits);
    const std::uint8_t inv = static_cast<std::uint8_t>(~seq);
    for (int i = 7; i >= 0; --i)
        out.push_back((seq >> i) & 1);
    for (int i = 7; i >= 0; --i)
        out.push_back((inv >> i) & 1);
    out.insert(out.end(), data512.begin(), data512.end());
    const BitString parity = parityBits(data512);
    out.insert(out.end(), parity.begin(), parity.end());
    return out;
}

std::optional<std::pair<std::uint8_t, BitString>>
decodePacket(const BitString &bits)
{
    if (bits.size() != packetTotalBits)
        return std::nullopt;
    std::uint8_t seq = 0, inv = 0;
    for (int i = 0; i < 8; ++i)
        seq = static_cast<std::uint8_t>((seq << 1) | (bits[i] & 1));
    for (int i = 8; i < 16; ++i)
        inv = static_cast<std::uint8_t>((inv << 1) | (bits[i] & 1));
    if (static_cast<std::uint8_t>(~seq) != inv)
        return std::nullopt;
    BitString data(bits.begin() + packetHeaderBits,
                   bits.begin() + packetHeaderBits + packetDataBits);
    const BitString expect = parityBits(data);
    for (std::size_t i = 0; i < packetParityBits; ++i) {
        if (expect[i] !=
            bits[packetHeaderBits + packetDataBits + i]) {
            return std::nullopt;
        }
    }
    return std::make_pair(seq, std::move(data));
}

} // namespace csim
