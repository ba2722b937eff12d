#include "mem/cache.hh"

#include <algorithm>
#include <memory>
#include <mutex>
#include <new>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace csim
{

namespace
{

/**
 * Line arrays of destroyed caches, kept for the next cache of the same
 * line count built on any host thread. An array is allocated once and
 * never goes back to the heap: a `fleet` or `mixed` cell's machine
 * takes the arrays the set-up's calibration or the last cell left,
 * whichever runner thread it lands on, so machine builds allocate no
 * large blocks after the first. Returning them, on cache destruction
 * or on thread exit, left peak RSS hanging on incidental heap layout
 * (DESIGN §7). The pool holds, per line count, as many arrays as were
 * ever alive at once.
 */
struct LinePool
{
    std::mutex mutex;
    /** Free arrays by line count, most recently freed last. */
    std::unordered_map<std::size_t, std::vector<CacheLine *>> free;
};

/** Never destroyed, so a cache may die in any static or thread-local
 *  destructor; the arrays are the process's until it exits. */
LinePool &
linePool()
{
    static LinePool *const pool = new LinePool;
    return *pool;
}

/**
 * Arrays of at least this many bytes start on a 2 MiB boundary, so
 * which transparent huge pages their touched sets fall in does not
 * hang on where the kernel placed the block.
 */
constexpr std::size_t hugePageBytes = std::size_t{2} << 20;

/** An array of @p count lines: a recycled one if the pool has one. */
CacheLine *
takeLines(std::size_t count)
{
    LinePool &pool = linePool();
    {
        const std::lock_guard<std::mutex> lock(pool.mutex);
        auto it = pool.free.find(count);
        if (it != pool.free.end() && !it->second.empty()) {
            CacheLine *lines = it->second.back();
            it->second.pop_back();
            return lines;
        }
    }
    const std::size_t bytes = count * sizeof(CacheLine);
    if (bytes < hugePageBytes)
        return std::allocator<CacheLine>().allocate(count);
    return static_cast<CacheLine *>(
        ::operator new(bytes, std::align_val_t{hugePageBytes}));
}

} // namespace

void
Cache::LineDeleter::operator()(CacheLine *lines) const
{
    LinePool &pool = linePool();
    const std::lock_guard<std::mutex> lock(pool.mutex);
    pool.free[count].push_back(lines);
}

const char *
mesiName(Mesi m)
{
    switch (m) {
      case Mesi::invalid: return "I";
      case Mesi::shared: return "S";
      case Mesi::exclusive: return "E";
      case Mesi::modified: return "M";
      case Mesi::owned: return "O";
      case Mesi::forward: return "F";
    }
    return "?";
}

Cache::Cache(std::string name, const CacheGeometry &geom,
             ReplPolicy policy, std::uint64_t policy_seed,
             std::unique_ptr<IndexFunction> index)
    : name_(std::move(name)),
      numSets_(geom.numSets()),
      assoc_(geom.assoc),
      lines_(takeLines(
                 static_cast<std::size_t>(geom.numSets()) * geom.assoc),
             LineDeleter{static_cast<std::size_t>(geom.numSets()) *
                         geom.assoc}),
      policy_(ReplacementPolicy::make(policy, geom.numSets(),
                                      geom.assoc, policy_seed)),
      indexFn_(std::move(index)),
      mruWay_(geom.numSets(), 0),
      filledSets_((geom.numSets() + 63) / 64, 0)
{
    panic_if(numSets_ == 0, name_, ": zero sets");
    if ((numSets_ & (numSets_ - 1)) == 0) {
        setMask_ = numSets_ - 1;
        setMaskValid_ = true;
    }
}

CacheLine *
Cache::setBegin(unsigned set)
{
    return lines_.get() + static_cast<std::size_t>(set) * assoc_;
}

const CacheLine *
Cache::setBegin(unsigned set) const
{
    return lines_.get() + static_cast<std::size_t>(set) * assoc_;
}

bool
Cache::setFilled(unsigned set) const
{
    return (filledSets_[set / 64] >> (set % 64)) & 1;
}

template <typename CacheT>
auto
Cache::findImpl(CacheT &self, PAddr line_addr)
    -> decltype(self.setBegin(0u))
{
    panic_if(line_addr != lineAlign(line_addr),
             self.name_, ": unaligned line address");
    // Fast path 1: the line found by the previous lookup. Compare
    // lastAddr_ before dereferencing lastIdx_: until a lookup or fill
    // sets both, lastIdx_ may name a slot that was never constructed.
    if (self.lastAddr_ == line_addr) {
        auto *last = self.lines_.get() + self.lastIdx_;
        if (last->valid() && last->addr == line_addr)
            return last;
    }
    const unsigned set = self.setIndex(line_addr);
    // An unmarked set holds no valid line and may not be constructed.
    if (!self.setFilled(set))
        return nullptr;
    auto *base = self.setBegin(set);
    // Fast path 2: the way that hit most recently in this set.
    const unsigned mru = self.mruWay_[set];
    if (base[mru].valid() && base[mru].addr == line_addr) {
        self.lastIdx_ = static_cast<std::size_t>(set) * self.assoc_ +
                        mru;
        self.lastAddr_ = line_addr;
        return &base[mru];
    }
    for (unsigned w = 0; w < self.assoc_; ++w) {
        if (base[w].valid() && base[w].addr == line_addr) {
            self.mruWay_[set] = static_cast<std::uint8_t>(w);
            self.lastIdx_ =
                static_cast<std::size_t>(set) * self.assoc_ + w;
            self.lastAddr_ = line_addr;
            return &base[w];
        }
    }
    return nullptr;
}

CacheLine *
Cache::find(PAddr line_addr)
{
    return findImpl(*this, line_addr);
}

const CacheLine *
Cache::find(PAddr line_addr) const
{
    return findImpl(*this, line_addr);
}

void
Cache::touch(CacheLine &line)
{
    line.lastUse = ++useCounter_;
    if (policy_) {
        const auto idx =
            static_cast<std::size_t>(&line - lines_.get());
        policy_->onHit(static_cast<unsigned>(idx / assoc_),
                       static_cast<unsigned>(idx % assoc_));
    }
}

CacheLine &
Cache::insert(PAddr line_addr, Mesi state, Victim *victim)
{
    panic_if(state == Mesi::invalid,
             name_, ": inserting an invalid line");
    panic_if(line_addr != lineAlign(line_addr),
             name_, ": unaligned line address");
    const unsigned set_idx = setIndex(line_addr);
    CacheLine *set = setBegin(set_idx);
    CacheLine *slot = nullptr;
    if (!setFilled(set_idx)) {
        // First fill of an unmarked set: construct its ways (again,
        // if a walk unmarked it). They are all invalid, so the way
        // is the first, as the scan below would pick.
        std::uninitialized_value_construct_n(set, assoc_);
        filledSets_[set_idx / 64] |= std::uint64_t{1} << (set_idx % 64);
        slot = set;
    } else {
        // One pass: the duplicate check find() would make, and the
        // first invalid way. A miss in find() changes none of its
        // accelerators, so skipping it changes nothing.
        for (unsigned w = 0; w < assoc_; ++w) {
            if (set[w].valid()) {
                panic_if(set[w].addr == line_addr, name_,
                         ": inserting line already present: ",
                         line_addr);
            } else if (!slot) {
                slot = &set[w];
            }
        }
    }
    if (!slot) {
        if (policy_) {
            slot = &set[policy_->victimWay(set_idx)];
        } else {
            // Builtin policy: evict the least recently used way.
            slot = &set[0];
            for (unsigned w = 1; w < assoc_; ++w) {
                if (set[w].lastUse < slot->lastUse)
                    slot = &set[w];
            }
        }
        if (victim) {
            victim->valid = true;
            victim->line = *slot;
        }
    }
    *slot = CacheLine{};
    slot->addr = line_addr;
    slot->state = state;
    touch(*slot);
    // The way comes from pointer arithmetic within the set: fills
    // are frequent enough that an integer division here shows up in
    // the directory-churn perf kernel.
    const auto way = static_cast<unsigned>(slot - set);
    if (policy_)
        policy_->onFill(set_idx, way);
    mruWay_[set_idx] = static_cast<std::uint8_t>(way);
    lastIdx_ = static_cast<std::size_t>(set_idx) * assoc_ + way;
    lastAddr_ = line_addr;
    return *slot;
}

bool
Cache::invalidate(PAddr line_addr)
{
    if (CacheLine *line = find(line_addr)) {
        if (policy_) {
            const auto idx =
                static_cast<std::size_t>(line - lines_.get());
            policy_->onInvalidate(
                static_cast<unsigned>(idx / assoc_),
                static_cast<unsigned>(idx % assoc_));
        }
        *line = CacheLine{};
        return true;
    }
    return false;
}

void
Cache::clear()
{
    forEachLine([this](const CacheLine &line) {
        lines_.get()[&line - lines_.get()] = CacheLine{};
    });
    std::fill(filledSets_.begin(), filledSets_.end(), 0);
    if (policy_)
        policy_->reset();
}

std::size_t
Cache::occupancy() const
{
    std::size_t n = 0;
    forEachLine([&n](const CacheLine &) { ++n; });
    return n;
}

} // namespace csim
