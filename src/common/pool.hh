// Size-classed node pool for the store's tree nodes (DESIGN.md §8). A
// timeline append allocates a red-black node and frees it when the range
// is evicted; routing those through malloc costs a lock-free fast path at
// best and a cache-cold descent at worst. NodePool carves fixed-size
// blocks from 64 KiB slabs with a bump pointer and recycles freed blocks
// on per-size free lists, so steady-state maintenance inserts reuse warm
// memory and never touch the global allocator. Blocks above kMaxBlock
// (bulk/array allocations) pass through to operator new.
//
// The pool never returns memory to the OS until it is destroyed; that is
// the right trade for store trees, whose population is the working set.
#ifndef PEQUOD_COMMON_POOL_HH
#define PEQUOD_COMMON_POOL_HH

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

#include "common/annotate.hh"
#include "common/validate.hh"
#if PEQUOD_VALIDATE
#include <unordered_set>
#endif

namespace pequod {

class NodePool {
  public:
    static constexpr size_t kGranularity = 16;
    static constexpr size_t kMaxBlock = 512;
    static constexpr size_t kSlabSize = 1 << 16;

    NodePool() = default;
    NodePool(const NodePool&) = delete;
    NodePool& operator=(const NodePool&) = delete;

    // The pool IS the sanctioned allocator for tree nodes (§8): the warm
    // case pops a free list; the slab refill and the oversize
    // fall-through to ::operator new are its cold paths.
    PQ_COLDPATH void* allocate(size_t n) {
        if (n > kMaxBlock)
            return ::operator new(n);
        size_t c = size_class(n);
        if (free_[c]) {
            void* p = free_[c];
            free_[c] = *static_cast<void**>(p);
#if PEQUOD_VALIDATE
            free_blocks_.erase(p);
#endif
            return p;
        }
        size_t block = c * kGranularity;
        if (remaining_ < block) {
            slabs_.push_back(std::make_unique<char[]>(kSlabSize));
            cursor_ = slabs_.back().get();
            remaining_ = kSlabSize;
        }
        void* p = cursor_;
        cursor_ += block;
        remaining_ -= block;
        return p;
    }

    void deallocate(void* p, size_t n) {
        if (n > kMaxBlock) {
            ::operator delete(p);
            return;
        }
#if PEQUOD_VALIDATE
        // Freeing a block already on a free list would link the list to
        // itself and hand the same memory out twice.
        if (!free_blocks_.insert(p).second)
            invariant_fail("NodePool", "double free of pooled block");
#endif
        size_t c = size_class(n);
        *static_cast<void**>(p) = free_[c];
        free_[c] = p;
    }

    // Walk every free list, checking for cycles (the footprint a double
    // free leaves behind): no list can hold more blocks than the slabs
    // ever carved. In validate builds, also reconcile the lists against
    // the freed-block set maintained by deallocate. Throws
    // InvariantError (DESIGN.md §11).
    void verify() const {
        size_t limit = slabs_.size() * (kSlabSize / kGranularity) + 1;
        size_t total = 0;
        for (size_t c = 0; c < kMaxBlock / kGranularity + 1; ++c) {
            size_t steps = 0;
            for (void* p = free_[c]; p; p = *static_cast<void**>(p)) {
                if (++steps > limit)
                    invariant_fail("NodePool",
                                   "free-list cycle (double free)");
#if PEQUOD_VALIDATE
                if (!free_blocks_.count(p))
                    invariant_fail("NodePool",
                                   "free-list block not tracked as freed");
#endif
            }
            total += steps;
        }
#if PEQUOD_VALIDATE
        if (total != free_blocks_.size())
            invariant_fail("NodePool",
                           "freed-block count disagrees with free lists");
#else
        (void)total;
#endif
    }

  private:
    static size_t size_class(size_t n) {
        return (n + kGranularity - 1) / kGranularity;  // >= 1 block
    }

    // operator new[] storage is 16-byte aligned and blocks are multiples
    // of kGranularity, so every carved block keeps that alignment.
    std::vector<std::unique_ptr<char[]>> slabs_;
    void* free_[kMaxBlock / kGranularity + 1] = {};
    char* cursor_ = nullptr;
    size_t remaining_ = 0;
#if PEQUOD_VALIDATE
    // Every pooled block currently sitting on a free list, so deallocate
    // can reject a double free the moment it happens.
    std::unordered_set<const void*> free_blocks_;
#endif
};

// Minimal allocator over a NodePool, for node-based containers. The pool
// must outlive every container using it; Store owns one for its trees.
template <typename T>
struct PoolAllocator {
    using value_type = T;

    NodePool* pool;

    explicit PoolAllocator(NodePool* p) : pool(p) {}
    template <typename U>
    PoolAllocator(const PoolAllocator<U>& other) : pool(other.pool) {}

    T* allocate(size_t n) {
        return static_cast<T*>(pool->allocate(n * sizeof(T)));
    }
    void deallocate(T* p, size_t n) {
        pool->deallocate(p, n * sizeof(T));
    }

    template <typename U>
    bool operator==(const PoolAllocator<U>& other) const {
        return pool == other.pool;
    }
    template <typename U>
    bool operator!=(const PoolAllocator<U>& other) const {
        return pool != other.pool;
    }
};

}  // namespace pequod

#endif
