/**
 * @file
 * A table indexed by descriptor number whose memory follows the
 * descriptors in use, not the highest one named: the fd table and
 * each epoll interest list are one.
 */
#ifndef OCCLUM_OSKIT_LEAF_TABLE_H
#define OCCLUM_OSKIT_LEAF_TABLE_H

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

namespace occlum::oskit {

/**
 * A directory of 512-entry leaves. A leaf is allocated when an index
 * in it is first claimed and freed when its last claimed index is
 * released, so a table costs a leaf per 512-index span in use plus a
 * pointer per span below the highest one. An entry never moves while
 * it is claimed: its address may be registered elsewhere.
 */
template <typename T>
class LeafTable
{
  public:
    static constexpr size_t kLeafSize = 512;

    LeafTable() = default;
    LeafTable(const LeafTable &) = delete; // first_ aliases dir_[0]
    LeafTable &operator=(const LeafTable &) = delete;

    /** The entry at `i`, claimed or not, or null if its leaf is not
     *  allocated. */
    T *
    find(size_t i) const
    {
        if (i < kLeafSize) { // every fd of most processes: one load
            return first_ ? &first_->entries[i] : nullptr;
        }
        const size_t leaf = i / kLeafSize;
        return leaf < dir_.size() && dir_[leaf]
                   ? &dir_[leaf]->entries[i % kLeafSize]
                   : nullptr;
    }

    /** Claim the unclaimed entry at `i`, allocating its leaf. */
    T &
    claim(size_t i)
    {
        const size_t leaf = i / kLeafSize;
        if (leaf >= dir_.size()) {
            dir_.resize(leaf + 1);
        }
        if (!dir_[leaf]) {
            dir_[leaf] = std::make_unique<Leaf>();
            ++leaves_;
            if (leaf == 0) {
                first_ = dir_[0].get();
            }
        }
        ++dir_[leaf]->claimed;
        return dir_[leaf]->entries[i % kLeafSize];
    }

    /** Reset the claimed entry at `i`; its leaf goes with the last. */
    void
    release(size_t i)
    {
        std::unique_ptr<Leaf> &leaf = dir_[i / kLeafSize];
        leaf->entries[i % kLeafSize] = T{};
        if (--leaf->claimed == 0) {
            if (leaf.get() == first_) {
                first_ = nullptr;
            }
            leaf.reset();
            --leaves_;
        }
    }

    /** `fn(i, entry)` for every entry of every allocated leaf,
     *  ascending; unclaimed entries are T{}. */
    template <typename Fn>
    void
    for_each(Fn &&fn) const
    {
        for (size_t leaf = 0; leaf < dir_.size(); ++leaf) {
            if (dir_[leaf]) {
                for (size_t j = 0; j < kLeafSize; ++j) {
                    fn(leaf * kLeafSize + j, dir_[leaf]->entries[j]);
                }
            }
        }
    }

    void
    clear()
    {
        dir_.clear();
        first_ = nullptr;
        leaves_ = 0;
    }

    /** Allocated leaves: the table's memory, in kLeafSize entries. */
    size_t leaves() const { return leaves_; }

  private:
    struct Leaf {
        std::array<T, kLeafSize> entries{};
        size_t claimed = 0;
    };

    std::vector<std::unique_ptr<Leaf>> dir_;
    /** dir_[0] when allocated, else null: find() below kLeafSize
     *  skips the directory, so the common lookup costs what a flat
     *  array's does. */
    Leaf *first_ = nullptr;
    size_t leaves_ = 0;
};

} // namespace occlum::oskit

#endif // OCCLUM_OSKIT_LEAF_TABLE_H
