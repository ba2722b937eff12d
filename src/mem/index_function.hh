/**
 * @file
 * LLC set/slice index seam.
 *
 * A cache constructed without an IndexFunction keeps its builtin
 * linear mapping (frame & mask, or frame % sets) — the default path
 * is untouched. With one, every set lookup routes through
 * IndexFunction::index(frame), which is how the slice hash and the
 * two randomized defenses plug in:
 *
 *  - xorFold: a fixed XOR-fold of the frame bits, modelling the
 *    physical slice hash of a real multi-bank LLC. Deterministic and
 *    public, but breaks the "same-set addresses are set-stride
 *    apart" arithmetic that naive eviction-set construction uses.
 *  - remap (CEASER-style dynamic remapping): a keyed mix of the
 *    frame; MemorySystem rekeys it every `mem.remap_period` LLC-side
 *    accesses, flushing resident lines through the normal victim
 *    paths so the old placement is actually destroyed.
 *  - mirage (MIRAGE-style): a keyed random placement hash with a
 *    static key; MemorySystem pairs it with forced-random LLC
 *    eviction to approximate tagless random placement + global
 *    random eviction. (The full MIRAGE design — split skews and
 *    indirection — is out of scope; the security-relevant property
 *    modelled here is that set membership and victim choice carry no
 *    address information.)
 */

#ifndef COHERSIM_MEM_INDEX_FUNCTION_HH
#define COHERSIM_MEM_INDEX_FUNCTION_HH

#include <cstdint>

#include "common/types.hh"
#include "mem/params.hh"

namespace csim
{

/** Maps a line frame number to a cache set index. */
class IndexFunction
{
  public:
    IndexFunction(IndexFn kind, unsigned numSets, std::uint64_t key);

    unsigned
    index(std::uint64_t frame) const
    {
        switch (kind_) {
          case IndexFn::linear:
            return maskValid_ ? static_cast<unsigned>(frame & mask_)
                              : static_cast<unsigned>(frame % numSets_);
          case IndexFn::xorFold:
            return fold(frame);
          case IndexFn::remap:
          case IndexFn::mirage:
            return static_cast<unsigned>(mix(frame ^ key_) % numSets_);
        }
        return 0;
    }

    /** Install a fresh key (remap rekey). */
    void rekey(std::uint64_t key) { key_ = key; }

    IndexFn kind() const { return kind_; }

  private:
    unsigned fold(std::uint64_t frame) const;
    static std::uint64_t mix(std::uint64_t v);

    IndexFn kind_;
    unsigned numSets_;
    unsigned setBits_;
    std::uint64_t mask_;
    bool maskValid_;
    std::uint64_t key_;
};

} // namespace csim

#endif // COHERSIM_MEM_INDEX_FUNCTION_HH
