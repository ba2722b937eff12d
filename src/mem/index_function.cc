#include "mem/index_function.hh"

#include "common/logging.hh"

namespace csim
{

IndexFunction::IndexFunction(IndexFn kind, unsigned numSets,
                             std::uint64_t key)
    : kind_(kind), numSets_(numSets), key_(key)
{
    panic_if(numSets == 0, "index function needs at least one set");
    maskValid_ = (numSets & (numSets - 1)) == 0;
    mask_ = numSets - 1;
    setBits_ = 1;
    while ((1u << setBits_) < numSets)
        ++setBits_;
}

unsigned
IndexFunction::fold(std::uint64_t frame) const
{
    // XOR-fold the frame into setBits_-wide chunks, then reduce.
    const std::uint64_t chunk_mask = (std::uint64_t{1} << setBits_) - 1;
    std::uint64_t folded = 0;
    for (unsigned shift = 0; shift < 64; shift += setBits_)
        folded ^= (frame >> shift) & chunk_mask;
    return static_cast<unsigned>(folded % numSets_);
}

std::uint64_t
IndexFunction::mix(std::uint64_t v)
{
    // splitmix64 finalizer: a cheap keyed full-avalanche mix.
    v += 0x9e3779b97f4a7c15ULL;
    v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
    v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
    return v ^ (v >> 31);
}

} // namespace csim
