/**
 * @file
 * The leakage-vector family the channel layer can host. Kept in its
 * own header so ChannelConfig can name a vector without pulling in
 * the full plugin interface (channel/vector.hh), which itself needs
 * ChannelConfig.
 */

#ifndef COHERSIM_CHANNEL_VECTOR_KIND_HH
#define COHERSIM_CHANNEL_VECTOR_KIND_HH

#include <cstdint>

namespace csim
{

/**
 * Which microarchitectural state the trojan modulates and the spy
 * times. Each kind is implemented by a LeakageVector plugin
 * (channel/vector.hh); `coherence` is the paper's channel and the
 * default everywhere.
 */
enum class VectorKind : std::uint8_t
{
    coherence,  //!< coherence-state flush+reload (the paper)
    dirty,      //!< E-vs-M writeback timing of a shared line (Cui)
    lru,        //!< replacement-metadata channel (Xiong & Szefer)
    pagefault,  //!< COW-fault timing via KSM merging (Swaminathan)
    coherence2bit,  //!< 2-bit symbols over all four combos (§VIII-D)
};

inline constexpr int numVectorKinds = 5;

/** Printable name: coherence, dirty, lru, pagefault, coherence-2bit. */
const char *vectorName(VectorKind k);

} // namespace csim

#endif // COHERSIM_CHANNEL_VECTOR_KIND_HH
