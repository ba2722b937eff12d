/**
 * @file
 * A set-associative write-back cache with per-line MESI state and LRU
 * replacement. Used for private L1/L2 caches and, with the directory
 * extension fields, for the shared inclusive LLC.
 */

#ifndef COHERSIM_MEM_CACHE_HH
#define COHERSIM_MEM_CACHE_HH

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/types.hh"
#include "mem/index_function.hh"
#include "mem/params.hh"
#include "mem/replacement.hh"

namespace csim
{

/**
 * Coherence states. The core protocol is MESI (paper §II-B); the
 * owned (MOESI, AMD) and forward (MESIF, Intel) states are the
 * performance-optimizing extensions the paper's §II-B describes,
 * available through SystemConfig::flavor.
 */
enum class Mesi : std::uint8_t
{
    invalid,
    shared,
    exclusive,
    modified,
    owned,    //!< MOESI: dirty but shared; this cache services reads
    forward,  //!< MESIF: clean shared copy designated to forward
};

/** Printable name for a MESI state. */
const char *mesiName(Mesi m);

/**
 * One cache line's bookkeeping. The fields are ordered so the line
 * packs into 32 bytes: a touched 16-way LLC set is 512 B.
 */
struct CacheLine
{
    PAddr addr = 0;           //!< line-aligned physical address
    std::uint64_t lastUse = 0; //!< LRU timestamp

    /**
     * @name LLC directory extension (unused in private caches)
     * @{
     */
    /** Core-valid bit vector: which private caches hold the line. */
    std::uint32_t coreValid = 0;
    /** @} */

    Mesi state = Mesi::invalid;

    /**
     * @name LLC directory extension, continued
     * @{
     */
    /** LLC data newer than DRAM (needs writeback on eviction). */
    bool dirty = false;
    /**
     * Set when the LLC has been notified of an E->M upgrade
     * (mitigation mode, paper §VIII-E technique 3).
     */
    bool ownerModified = false;
    /**
     * Completion time of the fill that installed this line. A
     * request arriving earlier coalesces with the in-flight fill
     * (MSHR behaviour) and observes the remaining fill latency
     * instead of a crisp hit.
     */
    Tick fillReadyAt = 0;
    /** @} */

    bool valid() const { return state != Mesi::invalid; }
};

static_assert(sizeof(CacheLine) == 32);
// Cache storage never runs a line's destructor.
static_assert(std::is_trivially_destructible_v<CacheLine>);

/** Description of a line displaced by an insertion. */
struct Victim
{
    bool valid = false;
    CacheLine line;  //!< copy of the displaced line's bookkeeping
};

/**
 * Set-associative cache structure. Pure bookkeeping: latency and
 * coherence transitions live in MemorySystem.
 */
class Cache
{
  public:
    /**
     * @param policy replacement policy; lru keeps the builtin
     *        timestamp fast path (no policy object at all).
     * @param policy_seed determinism seed for random victims.
     * @param index optional set index function; null keeps the
     *        builtin linear mapping.
     */
    Cache(std::string name, const CacheGeometry &geom,
          ReplPolicy policy = ReplPolicy::lru,
          std::uint64_t policy_seed = 0,
          std::unique_ptr<IndexFunction> index = nullptr);

    /**
     * Find a valid line; nullptr on miss. Does not touch LRU.
     *
     * Lookups are accelerated by a one-entry last-line cache and a
     * per-set MRU way hint; neither affects which line is found or
     * the LRU replacement order, only how fast the hit is located.
     */
    CacheLine *find(PAddr line_addr);
    const CacheLine *find(PAddr line_addr) const;

    /** Mark a line most recently used. */
    void touch(CacheLine &line);

    /**
     * Insert a line (must not already be present), displacing the LRU
     * way if the set is full.
     *
     * @param line_addr line-aligned address to insert.
     * @param state initial MESI state.
     * @param victim receives the displaced line, if any.
     * @return reference to the inserted line.
     */
    CacheLine &insert(PAddr line_addr, Mesi state, Victim *victim);

    /** Drop a line if present. @return true if it was present. */
    bool invalidate(PAddr line_addr);

    /** Invalidate every line (used by tests). */
    void clear();

    /**
     * Apply @p fn to every valid line, in ascending set order and way
     * order within a set. Only sets marked in the filled-set bitmap
     * are read (unmarked ones may not even be constructed), so a
     * walk costs O(filled sets), not O(capacity); a marked set found
     * empty is unmarked on the way.
     */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        for (std::size_t word = 0; word < filledSets_.size(); ++word) {
            for (std::uint64_t bits = filledSets_[word]; bits != 0;
                 bits &= bits - 1) {
                const int bit = std::countr_zero(bits);
                const CacheLine *set = setBegin(
                    static_cast<unsigned>(word * 64 + bit));
                bool filled = false;
                for (unsigned w = 0; w < assoc_; ++w) {
                    if (set[w].valid()) {
                        filled = true;
                        fn(set[w]);
                    }
                }
                if (!filled)
                    filledSets_[word] &= ~(std::uint64_t{1} << bit);
            }
        }
    }

    /** Number of valid lines currently held. */
    std::size_t occupancy() const;

    const std::string &name() const { return name_; }
    unsigned numSets() const { return numSets_; }
    unsigned assoc() const { return assoc_; }

    /** Set index a line address maps to. The builtin mapping is
     *  linear: power-of-two set counts (all private caches) use a
     *  mask; the modulo fallback supports the non-power-of-two set
     *  counts of real LLCs, e.g. 12288. A configured IndexFunction
     *  (slice hash / randomized defense) overrides it. */
    unsigned
    setIndex(PAddr line_addr) const
    {
        const PAddr frame = line_addr / lineBytes;
        if (indexFn_)
            return indexFn_->index(frame);
        if (setMaskValid_)
            return static_cast<unsigned>(frame) & setMask_;
        return static_cast<unsigned>(frame % numSets_);
    }

    /** The configured index function, or null for builtin linear. */
    IndexFunction *indexFunction() { return indexFn_.get(); }

  private:
    /**
     * Hands the line array to the process's free list, without
     * running per-line destructors, for the next cache of the same
     * line count to take (see takeLines() in cache.cc).
     */
    struct LineDeleter
    {
        std::size_t count;
        void operator()(CacheLine *lines) const;
    };

    /**
     * Shared lookup for the const and non-const find() overloads:
     * @p CacheT is `Cache` or `const Cache`, so the returned pointer
     * inherits the caller's constness without a const_cast.
     */
    template <typename CacheT>
    static auto findImpl(CacheT &self, PAddr line_addr)
        -> decltype(self.setBegin(0u));

    std::string name_;
    unsigned numSets_;
    unsigned assoc_;
    unsigned setMask_ = 0;       //!< numSets_ - 1 when a power of two
    bool setMaskValid_ = false;
    /**
     * numSets * assoc lines, set-major, allocated but not
     * constructed: insert() constructs a set's ways when it marks the
     * set in `filledSets_`, so a cache costs what it touches, not its
     * capacity. Unmarked sets are never read, which is also what
     * makes a recycled array safe: it may still hold a destroyed
     * cache's lines.
     */
    std::unique_ptr<CacheLine, LineDeleter> lines_;
    std::uint64_t useCounter_ = 0;
    /** Non-lru victim selection; null keeps the builtin LRU scan. */
    std::unique_ptr<ReplacementPolicy> policy_;
    /** Non-linear set mapping; null keeps the builtin linear path. */
    std::unique_ptr<IndexFunction> indexFn_;
    /**
     * @name Lookup accelerators
     * `lines_` never reallocates after construction, so a cached slot
     * index stays valid forever; a stale entry is detected by the
     * valid()/addr check and falls through to the full set scan.
     * Mutable: find() is logically const (it never changes which
     * lines are present or their LRU order).
     * @{
     */
    mutable std::size_t lastIdx_ = 0;
    mutable PAddr lastAddr_ = ~PAddr(0);  //!< never a line address
    mutable std::vector<std::uint8_t> mruWay_;  //!< per set
    /** @} */
    /**
     * One bit per set, set by insert(). A marked set is constructed;
     * an unmarked set holds no valid line. Its ways are either never
     * constructed, or constructed and all invalid after forEachLine()
     * or clear() unmarked it, and insert() constructs them afresh on
     * the next fill. So the marked sets are a superset of the sets
     * holding a valid line: insert() is the only way a line turns
     * valid, and find() returns valid lines only.
     * Mutable: forEachLine() unmarks the empty sets it reads.
     */
    mutable std::vector<std::uint64_t> filledSets_;

    CacheLine *setBegin(unsigned set);
    const CacheLine *setBegin(unsigned set) const;
    /** Whether @p set is marked in `filledSets_`. */
    bool setFilled(unsigned set) const;
};

} // namespace csim

#endif // COHERSIM_MEM_CACHE_HH
