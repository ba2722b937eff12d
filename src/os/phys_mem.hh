/**
 * @file
 * Physical page allocator with reference counting and page contents.
 *
 * Contents are stored only for pages that are explicitly written
 * (KSM-candidate pattern pages); untouched pages have zero-fill
 * semantics and cost no storage, so large noise-workload buffers are
 * cheap to simulate.
 */

#ifndef COHERSIM_OS_PHYS_MEM_HH
#define COHERSIM_OS_PHYS_MEM_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace csim
{

/** Physical page pool of the simulated machine. */
class PhysMem
{
  public:
    PhysMem();

    /** Allocate a fresh page (refcount 1). @return its base PAddr. */
    PAddr allocPage();

    /** Increment a page's reference count (new sharer). */
    void addRef(PAddr page);

    /** Drop a reference; the page is reclaimed at zero. */
    void release(PAddr page);

    /** Current reference count (0 if unallocated). */
    int refCount(PAddr page) const;

    /** Number of live (allocated) pages. */
    std::size_t livePages() const { return pages_.size(); }

    /** Overwrite a page's contents. @p data must be pageBytes long. */
    void setContents(PAddr page, std::vector<std::uint8_t> data);

    /** Copy one byte range into a page at the given offset. */
    void write(PAddr page, unsigned offset,
               const std::vector<std::uint8_t> &data);

    /**
     * Page contents; nullptr means the page is all zeroes.
     */
    const std::vector<std::uint8_t> *contents(PAddr page) const;

    /**
     * FNV-1a hash of the page contents (zero pages hash equal),
     * cached until the page is next written.
     */
    std::uint64_t contentHash(PAddr page) const;

    /** Byte-exact comparison of two pages. */
    bool samePage(PAddr a, PAddr b) const;

    /** True if @p page is currently allocated. */
    bool isAllocated(PAddr page) const;

  private:
    struct Page
    {
        int refs = 1;
        /** True while @ref hash is contentHash() of @ref data. */
        mutable bool hashed = false;
        mutable std::uint64_t hash = 0;
        /** Empty vector == all-zero page. */
        std::vector<std::uint8_t> data;
    };

    Page &pageRef(PAddr page);
    const Page *pageRefOrNull(PAddr page) const;

    std::unordered_map<PAddr, Page> pages_;
    PAddr nextPage_;
};

} // namespace csim

#endif // COHERSIM_OS_PHYS_MEM_HH
