#include "os/phys_mem.hh"

#include "common/logging.hh"

namespace csim
{

PhysMem::PhysMem()
    : nextPage_(0x1000'0000)  // leave low memory unused
{}

PAddr
PhysMem::allocPage()
{
    const PAddr page = nextPage_;
    nextPage_ += pageBytes;
    pages_.emplace(page, Page{});
    return page;
}

PhysMem::Page &
PhysMem::pageRef(PAddr page)
{
    auto it = pages_.find(page);
    panic_if(it == pages_.end(), "access to unallocated page ", page);
    return it->second;
}

const PhysMem::Page *
PhysMem::pageRefOrNull(PAddr page) const
{
    auto it = pages_.find(page);
    return it == pages_.end() ? nullptr : &it->second;
}

void
PhysMem::addRef(PAddr page)
{
    ++pageRef(page).refs;
}

void
PhysMem::release(PAddr page)
{
    Page &p = pageRef(page);
    panic_if(p.refs <= 0, "releasing page ", page,
             " with refcount ", p.refs);
    if (--p.refs == 0)
        pages_.erase(page);
}

int
PhysMem::refCount(PAddr page) const
{
    const Page *p = pageRefOrNull(page);
    return p ? p->refs : 0;
}

bool
PhysMem::isAllocated(PAddr page) const
{
    return pageRefOrNull(page) != nullptr;
}

void
PhysMem::setContents(PAddr page, std::vector<std::uint8_t> data)
{
    panic_if(data.size() != pageBytes,
             "page contents must be exactly ", pageBytes, " bytes");
    Page &p = pageRef(page);
    p.data = std::move(data);
    p.hashed = false;
}

void
PhysMem::write(PAddr page, unsigned offset,
               const std::vector<std::uint8_t> &data)
{
    panic_if(offset + data.size() > pageBytes,
             "write crosses the page boundary");
    Page &p = pageRef(page);
    if (p.data.empty())
        p.data.assign(pageBytes, 0);
    std::copy(data.begin(), data.end(), p.data.begin() + offset);
    p.hashed = false;
}

const std::vector<std::uint8_t> *
PhysMem::contents(PAddr page) const
{
    const Page *p = pageRefOrNull(page);
    panic_if(!p, "contents of unallocated page ", page);
    return p->data.empty() ? nullptr : &p->data;
}

std::uint64_t
PhysMem::contentHash(PAddr page) const
{
    static constexpr std::uint64_t zeroPageHash = 0x9e3779b97f4a7c15ULL;
    const Page *p = pageRefOrNull(page);
    panic_if(!p, "hash of unallocated page ", page);
    if (p->hashed)
        return p->hash;
    std::uint64_t h = zeroPageHash;
    if (!p->data.empty()) {
        h = 0xcbf29ce484222325ULL;
        for (std::uint8_t byte : p->data) {
            h ^= byte;
            h *= 0x100000001b3ULL;
        }
    }
    p->hash = h;
    p->hashed = true;
    return h;
}

bool
PhysMem::samePage(PAddr a, PAddr b) const
{
    const auto *ca = contents(a);
    const auto *cb = contents(b);
    if (!ca && !cb)
        return true;
    if (!ca || !cb) {
        const auto *nonzero = ca ? ca : cb;
        for (std::uint8_t byte : *nonzero)
            if (byte != 0)
                return false;
        return true;
    }
    return *ca == *cb;
}

} // namespace csim
