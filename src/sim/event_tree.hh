/**
 * @file
 * Tournament (winner) tree the scheduler picks its next event from.
 */

#ifndef COHERSIM_SIM_EVENT_TREE_HH
#define COHERSIM_SIM_EVENT_TREE_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace csim
{

/**
 * One 64-bit key per dense id (0, 1, 2, ...) in a winner tree:
 * reading the smallest key is a root read and changing one key
 * replays one leaf-to-root path, O(log N). Keys are ordered by
 * (key, id), so equal keys resolve to the lower id and next() returns
 * what a strict-`<` scan in id order would find.
 */
class EventTree
{
  public:
    /** Key of an id with no event; never the minimum of a non-empty
     *  set of events. */
    static constexpr std::uint64_t none = ~std::uint64_t{0};

    EventTree() : nodes_(2) {}

    /** Set @p id's key, growing the tree to hold @p id if needed. */
    void
    set(int id, std::uint64_t key)
    {
        const auto leaf = static_cast<std::size_t>(id);
        if (leaf >= capacity())
            grow(leaf + 1);
        std::size_t pos = capacity() + leaf;
        if (nodes_[pos].key == key)
            return;
        Node cur{key, id};
        nodes_[pos] = cur;
        // Each match only reads the sibling's winner. The sibling
        // wins a tie when it is the left child, i.e. has lower ids.
        for (; pos > 1; pos >>= 1) {
            const Node &sib = nodes_[pos ^ 1];
            if (sib.key < cur.key || (sib.key == cur.key && (pos & 1)))
                cur = sib;
            nodes_[pos >> 1] = cur;
        }
    }

    /** Id with the smallest key, or -1 when every key is none. */
    int
    next() const
    {
        return nodes_[1].key == none ? -1 : nodes_[1].id;
    }

  private:
    /** A match's winner: its key and the id it belongs to. */
    struct Node
    {
        std::uint64_t key = none;
        int id = 0;
    };

    /** Leaf count, a power of two. */
    std::size_t capacity() const { return nodes_.size() / 2; }

    /** Double the leaf count until it holds @p leaves, then replay
     *  every match. */
    void
    grow(std::size_t leaves)
    {
        const std::size_t old_cap = capacity();
        std::size_t cap = old_cap;
        while (cap < leaves)
            cap *= 2;
        std::vector<Node> nodes(2 * cap);
        for (std::size_t i = 0; i < cap; ++i) {
            nodes[cap + i] = {i < old_cap ? nodes_[old_cap + i].key : none,
                              static_cast<int>(i)};
        }
        for (std::size_t pos = cap - 1; pos >= 1; --pos) {
            const Node &l = nodes[2 * pos];
            const Node &r = nodes[2 * pos + 1];
            nodes[pos] = r.key < l.key ? r : l;
        }
        nodes_ = std::move(nodes);
    }

    /** Winner per node, root at 1, leaf i at capacity() + i. */
    std::vector<Node> nodes_;
};

} // namespace csim

#endif // COHERSIM_SIM_EVENT_TREE_HH
