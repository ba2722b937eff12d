#include "os/process.hh"

#include "common/logging.hh"
#include "os/phys_mem.hh"

namespace csim
{

Process::Process(ProcessId pid, std::string name, PhysMem &phys)
    : pid_(pid), name_(std::move(name)), phys_(phys)
{}

Process::~Process()
{
    forEachPage([this](VAddr, const PageMapping &mapping) {
        phys_.release(mapping.paddr);
    });
}

VAddr
Process::mmap(std::uint64_t bytes)
{
    fatal_if(bytes == 0, "mmap of zero bytes");
    const std::uint64_t pages = (bytes + pageBytes - 1) / pageBytes;
    const VAddr base = nextVpage();
    for (std::uint64_t i = 0; i < pages; ++i) {
        PageMapping m;
        m.paddr = phys_.allocPage();
        table_.push_back(m);
    }
    return base;
}

VAddr
Process::mapPhysical(const std::vector<PAddr> &pages, bool writable)
{
    fatal_if(pages.empty(), "mapPhysical with no pages");
    const VAddr base = nextVpage();
    for (PAddr page : pages) {
        phys_.addRef(page);
        PageMapping m;
        m.paddr = page;
        m.writable = writable;
        table_.push_back(m);
    }
    return base;
}

void
Process::madviseMergeable(VAddr base, std::uint64_t bytes)
{
    const std::uint64_t pages = (bytes + pageBytes - 1) / pageBytes;
    for (std::uint64_t i = 0; i < pages; ++i) {
        PageMapping *m = lookup(base + i * pageBytes);
        fatal_if(!m, "madvise of unmapped page ",
                 base + i * pageBytes);
        m->mergeable = true;
    }
}

PAddr
Process::translate(VAddr vaddr) const
{
    const PageMapping *m = lookup(vaddr);
    panic_if(!m, name_, ": translating unmapped address ", vaddr);
    return m->paddr + pageOffset(vaddr);
}

void
Process::writeData(VAddr vaddr, const std::vector<std::uint8_t> &data)
{
    std::size_t done = 0;
    VAddr cur = vaddr;
    while (done < data.size()) {
        const PageMapping *m = lookup(cur);
        fatal_if(!m, name_, ": writeData to unmapped address ", cur);
        const unsigned off = pageOffset(cur);
        const std::size_t chunk =
            std::min<std::size_t>(pageBytes - off, data.size() - done);
        phys_.write(m->paddr, off,
                    std::vector<std::uint8_t>(
                        data.begin() + static_cast<std::ptrdiff_t>(done),
                        data.begin() +
                            static_cast<std::ptrdiff_t>(done + chunk)));
        done += chunk;
        cur += chunk;
    }
}

void
Process::remap(VAddr vpage, const PageMapping &mapping)
{
    PageMapping *m = lookup(vpage);
    panic_if(!m, name_, ": remap of unmapped page ", vpage);
    *m = mapping;
}

} // namespace csim
