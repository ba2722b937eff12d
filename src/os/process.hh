/**
 * @file
 * Simulated processes: per-process virtual address space backed by a
 * page table over PhysMem, with mmap/madvise-style management.
 *
 * mmap is a bump allocator from a fixed base and nothing is ever
 * unmapped, so the page table is a dense array indexed by
 * (vpage - base) / pageBytes and a lookup is one bounds check and one
 * index.
 */

#ifndef COHERSIM_OS_PROCESS_HH
#define COHERSIM_OS_PROCESS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace csim
{

class PhysMem;

/** One page-table entry. */
struct PageMapping
{
    PAddr paddr = 0;
    bool writable = true;
    /** Store triggers a copy-on-write fault (KSM-merged pages). */
    bool cow = false;
    /** Registered with madvise(MADV_MERGEABLE). */
    bool mergeable = false;
};

/** A simulated process and its address space. */
class Process
{
  public:
    Process(ProcessId pid, std::string name, PhysMem &phys);
    ~Process();

    Process(const Process &) = delete;
    Process &operator=(const Process &) = delete;

    ProcessId pid() const { return pid_; }
    const std::string &name() const { return name_; }

    /**
     * Map @p bytes of fresh zeroed memory (anonymous mmap).
     * @return base virtual address (page aligned).
     */
    VAddr mmap(std::uint64_t bytes);

    /**
     * Map an existing physical page range into this address space
     * (explicit sharing: shared-library model). Takes a reference on
     * each page.
     *
     * @param pages physical page base addresses.
     * @param writable whether stores are permitted.
     * @return base virtual address.
     */
    VAddr mapPhysical(const std::vector<PAddr> &pages, bool writable);

    /** madvise(MADV_MERGEABLE): allow KSM to merge this range. */
    void madviseMergeable(VAddr base, std::uint64_t bytes);

    /**
     * Look up the mapping covering @p vaddr; nullptr if unmapped.
     * The entry never moves on remap(), so the pointer stays valid,
     * and sees remaps, until the next mmap or mapPhysical.
     */
    const PageMapping *
    lookup(VAddr vaddr) const
    {
        const VAddr idx = indexOf(vaddr);
        return idx < table_.size() ? &table_[idx] : nullptr;
    }

    PageMapping *
    lookup(VAddr vaddr)
    {
        const VAddr idx = indexOf(vaddr);
        return idx < table_.size() ? &table_[idx] : nullptr;
    }

    /** Translate; panics on unmapped addresses (tests use lookup). */
    PAddr translate(VAddr vaddr) const;

    /**
     * Functional data write (no timing): fill memory with a pattern,
     * e.g. the identical pages the trojan/spy prepare for KSM.
     */
    void writeData(VAddr vaddr, const std::vector<std::uint8_t> &data);

    /**
     * Apply @p fn(vpage, mapping) to every mapped page in ascending
     * vpage order. @p fn may remap() pages, since that rewrites an
     * entry in place, but must not mmap.
     */
    template <typename Fn>
    void
    forEachPage(Fn &&fn) const
    {
        for (std::size_t i = 0; i < table_.size(); ++i)
            fn(mmapBase + i * pageBytes, table_[i]);
    }

    /** Replace the mapping of one virtual page in place (KSM / COW). */
    void remap(VAddr vpage, const PageMapping &mapping);

    PhysMem &phys() { return phys_; }

  private:
    /** Virtual address of the first mmap. */
    static constexpr VAddr mmapBase = 0x4000'0000;

    /** Table index of @p vaddr's page. Below the base the
     *  subtraction wraps past every index. */
    static VAddr indexOf(VAddr vaddr)
    {
        return (vaddr - mmapBase) / pageBytes;
    }

    /** Where the next mmap or mapPhysical starts. */
    VAddr nextVpage() const { return mmapBase + table_.size() * pageBytes; }

    ProcessId pid_;
    std::string name_;
    PhysMem &phys_;
    /** One entry per virtual page from mmapBase up to the last page
     *  mapped. */
    std::vector<PageMapping> table_;
};

} // namespace csim

#endif // COHERSIM_OS_PROCESS_HH
