// The ordered key/value store (DESIGN.md §5). One logical key space; keys
// are flat '|'-separated strings. With subtables enabled, keys under a
// configured table prefix (e.g. "t|" grouped by 1 component) are routed
// into a small per-group tree found through a hash index, so operations
// that stay inside one group — a timeline put or a short timeline scan —
// hash O(1) to a tree of a few dozen entries instead of descending one
// large tree of long keys (§4.1). Scans merge the main tree and subtable
// blocks back into one ordered stream.
//
// All lookups take Str views and the trees use transparent comparators,
// so routing a key to its group and probing a tree never constructs a
// temporary std::string (§8): the only per-put allocations left are the
// tree node and owned key bytes of a genuinely new entry.
#ifndef PEQUOD_STORE_STORE_HH
#define PEQUOD_STORE_STORE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/annotate.hh"
#include "common/base.hh"
#include "common/pool.hh"
#include "common/str.hh"

namespace pequod {

// A refcounted value buffer (§4.3 value sharing). A copy join's sink
// entry can hold a reference to its source entry's buffer instead of
// duplicating the bytes; overwriting the source writes through the
// shared buffer, so every sharer observes the new value immediately —
// which is exactly the freshness the eager-maintenance path guarantees
// anyway. The buffer dies with its last reference, so a shared value
// survives even if the owning (source) entry is erased first.
class SharedValue {
  public:
    explicit SharedValue(std::string s) : s_(std::move(s)) {}
    SharedValue(const SharedValue&) = delete;
    SharedValue& operator=(const SharedValue&) = delete;

    const std::string& str() const {
        return s_;
    }
    void assign(Str v) {
        // Shared buffers, like inline values, reuse capacity on
        // overwrite. pqcheck: allow(no-alloc)
        s_.assign(v.data(), v.size());
    }
    uint32_t refs() const {
        return refs_;
    }
    SharedValue* ref() {
        ++refs_;
        return this;
    }
    // Drops one reference, deleting the buffer at zero. `sv` may be null.
    static void unref(SharedValue* sv) {
        if (sv && --sv->refs_ == 0)
            delete sv;
    }

  private:
    std::string s_;
    uint32_t refs_ = 1;
};

// A stored datum. Wrapped (rather than a bare string) so per-key metadata
// can grow without touching every call site. The value lives either
// inline (`value_`, the common case) or in a SharedValue buffer; an entry
// holding a buffer is its *owner* when it promoted the buffer (a source
// entry whose bytes were shared out) and a *sharer* otherwise (a copy
// join's sink entry). Only owners account the payload bytes, so
// memory_stats() counts each shared value once.
class Entry {
  public:
    Entry() = default;
    explicit Entry(std::string value) : value_(std::move(value)) {}
    Entry(const Entry&) = delete;
    Entry& operator=(const Entry&) = delete;
    ~Entry() {
        SharedValue::unref(sv_);
    }

    const std::string& value() const {
        return sv_ ? sv_->str() : value_;
    }

    // Write `v` in place. An owner writes through its shared buffer (all
    // sharers see the new bytes); a sharer detaches first — a direct
    // overwrite of a sink entry must not clobber the source.
    void set_value(Str v) {
        if (sv_ && !owns_) {
            SharedValue::unref(sv_);
            sv_ = nullptr;
        }
        if (sv_)
            sv_->assign(v);
        else
            // Owned value bytes: assign reuses capacity and grows only
            // when the new value is longer. pqcheck: allow(no-alloc)
            value_.assign(v.data(), v.size());
    }

    // A new reference to this entry's value buffer, promoting the inline
    // bytes into a SharedValue on first use. Representation-only change
    // (the observable value is identical), hence const + mutable members.
    SharedValue* share_value() const {
        if (!sv_) {
            // One-time representation upgrade: the first share of an
            // entry promotes its inline bytes into a refcounted buffer;
            // every later share is a refcount bump.
            // pqcheck: allow(no-alloc)
            sv_ = new SharedValue(std::move(value_));
            owns_ = true;
        }
        return sv_->ref();
    }

    // Take over one reference to `sv` as this entry's value (the caller's
    // reference is consumed). Adopting the buffer already held is a no-op.
    void adopt_shared(SharedValue* sv) {
        SharedValue::unref(sv_);  // ordering safe: sv holds a caller ref
        sv_ = sv;
        owns_ = false;
        value_.clear();
    }

    // True for a sink entry referencing some source's buffer.
    bool shares_value() const {
        return sv_ && !owns_;
    }
    // Validation accessor (DESIGN.md §11): the shared buffer this entry
    // references (null when the value is inline), so Server::verify()
    // can reconcile each buffer's refcount against the entries holding
    // it. Not for general use — the buffer's lifetime belongs to its
    // referencing entries.
    const SharedValue* shared_buffer_for_validate() const {
        return sv_;
    }
    // Payload bytes this entry is charged for: sharers are charged
    // nothing (their owner counts the buffer).
    size_t accounted_value_bytes() const {
        return shares_value() ? 0 : value().size();
    }

  private:
    mutable std::string value_;
    mutable SharedValue* sv_ = nullptr;
    mutable bool owns_ = false;
};

// What Server::scan callbacks receive: a pointer to the stored (or, for
// pull joins, freshly computed) value.
using ValuePtr = const std::string*;

// Estimated, not exact: structure costs are modeled constants, and a
// shared value's payload is charged to the entry that promoted it (its
// owner) for as long as that entry lives. Erasing an owner whose buffer
// is still referenced subtracts the payload even though the buffer
// survives — the erasing store cannot reach the sharers to hand the
// charge over — so value_bytes undercounts by the orphaned buffers'
// size until the last sharer dies. The engine's join workloads never
// erase shared sources, so the window is empty in practice.
struct MemoryStats {
    size_t entry_count = 0;
    size_t key_bytes = 0;        // key payload bytes
    size_t value_bytes = 0;      // value payload bytes, shared buffers
                                 // counted once (at their owner)
    size_t structure_bytes = 0;  // tree nodes, string headers, subtable
                                 // directory + hash index bookkeeping,
                                 // shared-value references
    size_t subtable_count = 0;
    size_t shared_value_count = 0;  // entries referencing another
                                    // entry's value buffer (§4.3)
    size_t total() const {
        return key_bytes + value_bytes + structure_bytes;
    }
};

class Store {
  public:
    // Tree nodes come from the store's own NodePool: a maintenance append
    // bumps a warm slab (or reuses a freed node) instead of calling
    // malloc. The pool lives behind a unique_ptr so trees can keep a
    // stable allocator across Store moves.
    using TreeAlloc = PoolAllocator<std::pair<const std::string, Entry>>;
    using Tree = std::map<std::string, Entry, std::less<>, TreeAlloc>;

    struct Subtable {
        explicit Subtable(NodePool* pool) : tree(TreeAlloc(pool)) {}
        // The full group prefix, e.g. "t|00000042|": the subtable's own
        // directory key, which its map node keeps at a stable address.
        const std::string* prefix = nullptr;
        // True for a '|'-terminated group, which owns every key starting
        // with its prefix; false for a one-key group (a key shorter than
        // its spec's component count is its own group).
        bool full = false;
        // The whole-group mark (DESIGN.md §5): the owning join sink has
        // materialized this group's entire block, so a scan confined to
        // the block is fresh without consulting the sink's valid set.
        // Set by the server; erase_range() clears it.
        bool materialized = false;
        Tree tree;
    };

    // Opaque insertion hint (§4.2 output hints). A valid hint remembers
    // which tree the previous put landed in and where, letting a
    // maintenance append skip the table routing and most of the tree
    // descent — and an overwrite of the hinted key skip the descent
    // entirely. Wrong or stale hints only cost time, never correctness;
    // an erase invalidates every outstanding hint via the store epoch.
    struct Hint {
        Tree* tree = nullptr;  // nullptr => hint invalid
        Subtable* table = nullptr;
        Tree::iterator pos;
        uint64_t epoch = 0;
    };

    Store() : Store(true) {}
    explicit Store(bool enable_subtables)
        : enable_subtables_(enable_subtables),
          pool_(std::make_unique<NodePool>()),
          tree_(TreeAlloc(pool_.get())) {}
    Store(const Store&) = delete;
    Store& operator=(const Store&) = delete;

    // Declare that keys under `prefix` are grouped into subtables by their
    // next `components` '|'-separated components. Must be configured
    // before any key under `prefix` is inserted; configured prefixes must
    // not be nested. Recorded (but inert) when subtables are disabled.
    void set_subtable_components(const std::string& prefix, int components);

    // True when a grouping spec for exactly `prefix` has been configured
    // (whether or not subtables are enabled).
    bool has_subtable_spec(Str prefix) const {
        for (const auto& spec : specs_)
            if (Str(spec.first) == prefix)
                return true;
        return false;
    }

    // Insert or overwrite. Returns the stored entry. With `hint`, tries
    // the hinted tree/position first and refreshes the hint afterwards.
    // `inserted` (when non-null) reports whether the key was new.
    PQ_NOALLOC Entry* put(Str key, Str value, Hint* hint = nullptr,
                          bool* inserted = nullptr);

    // Insert or overwrite with a shared value buffer (§4.3): the entry
    // adopts one reference to `sv` (the caller's reference is consumed)
    // instead of copying the bytes, and is charged only a reference's
    // structure overhead — the buffer's owner accounts the payload.
    Entry* put_shared(Str key, SharedValue* sv, Hint* hint = nullptr,
                      bool* inserted = nullptr);

    const Entry* get_ptr(Str key) const;

    // Remove every entry with lo <= key < hi (empty hi == +infinity),
    // returning how many were removed. Emptied subtables keep their
    // directory slot: the group will likely refill, and a stable slot is
    // what hints and the hash index rely on. Every subtable whose block
    // meets the range loses its whole-group mark, since part of it may
    // now be missing. Invalidates output hints.
    size_t erase_range(Str lo, Str hi);

    // Visit all entries with lo <= key < hi in key order. An empty `hi`
    // means +infinity. f(const std::string& key, const Entry&).
    template <typename F>
    void scan(Str lo, Str hi, F f) const;

    // The subtable whose group block holds every key of [lo, hi), found
    // with one hash probe. A group's block is the keys starting with its
    // '|'-terminated prefix; its end is the prefix with the final '|'
    // bumped to '}'. Null when subtables are off, when lo routes to no
    // group or to a one-key group (a key shorter than the group prefix),
    // when hi is infinite or passes the block's end, or when the group
    // has no subtable yet.
    PQ_NOALLOC Subtable* confined_group(Str lo, Str hi);
    PQ_NOALLOC const Subtable* confined_group(Str lo, Str hi) const;

    // True when [lo, hi) is exactly `sub`'s whole block.
    static bool is_block(const Subtable& sub, Str lo, Str hi);

    // Writes the end of `sub`'s block into `out`.
    static void block_end(const Subtable& sub, KeyBuf& out);

    // Visit `sub`'s entries in [lo, hi) in key order: the whole of a scan
    // that confined_group() placed in `sub`, with no directory walk and
    // no main-tree merge. f as for scan().
    template <typename F>
    static void scan_group(const Subtable& sub, Str lo, Str hi, F f);

    // Visit every subtable in prefix order.
    template <typename F>
    void for_each_group(F f) const {
        for (const auto& dir : tables_)
            f(dir.second);
    }
    template <typename F>
    void for_each_group(F f) {
        for (auto& dir : tables_)
            f(dir.second);
    }

    const MemoryStats& memory_stats() const {
        return stats_;
    }
    size_t size() const {
        return stats_.entry_count;
    }

    // Re-derive the store's invariants from a full walk (DESIGN.md §11):
    // the incremental MemoryStats match a from-scratch recount (incl.
    // shared_value_count vs the entries that actually share a buffer),
    // every subtable key belongs to its group, the hash index agrees
    // with the directory, and the node pool's free lists are sound.
    // Throws InvariantError on the first break.
    PQ_COLDPATH void verify() const;

  private:
    // Estimated allocator cost beyond payload bytes: a red-black node
    // (3 pointers + color, padded) plus two std::string headers.
    static constexpr size_t kNodeOverhead = 48 + 2 * sizeof(std::string);
    // A shared-value reference: the sharer's pointer plus its portion of
    // the buffer's refcount header.
    static constexpr size_t kSharedRefOverhead = sizeof(void*) + 8;
    // Directory node + Tree object + hash-index slot for one subtable.
    static constexpr size_t kSubtableOverhead =
        48 + sizeof(std::string) + sizeof(Subtable) + 64;

    bool enable_subtables_ = true;
    std::unique_ptr<NodePool> pool_;  // declared before the trees it feeds
    Tree tree_;  // keys not routed to any subtable
    // Directory ordered by group prefix, so scans can walk subtable
    // blocks in key order. std::map nodes give Subtables stable addresses
    // for the hash index and for hints.
    std::map<std::string, Subtable, std::less<>> tables_;
    std::unordered_map<std::string, Subtable*, StrHash, StrEqual>
        table_index_;
    std::vector<std::pair<std::string, int>> specs_;
    MemoryStats stats_;
    uint64_t epoch_ = 1;  // bumped by erase_range to invalidate hints

    // Length of `key`'s group prefix, or 0 when the key is not routed.
    // `full` (when non-null) reports whether the group is '|'-terminated
    // rather than a one-key group.
    size_t group_length(Str key, bool* full = nullptr) const;
    Subtable* find_or_make_subtable(Str group, bool full);
    const Subtable* find_subtable(Str group) const;
    // Store `value` (bytes) or adopt `sv` (shared buffer) into `e`,
    // keeping value-byte / shared-reference accounting balanced.
    void apply_value(Entry& e, Str value, SharedValue* sv);
    Entry* overwrite(Tree::iterator it, Str value, SharedValue* sv);
    Entry* insert_into(Tree& tree, bool use_hint, Tree::iterator hint_pos,
                       Str key, Str value, SharedValue* sv,
                       Tree::iterator* out_pos, bool* inserted);
    Entry* put_impl(Str key, Str value, SharedValue* sv, Hint* hint,
                    bool* inserted);
};

template <typename F>
void Store::scan_group(const Subtable& sub, Str lo, Str hi, F f) {
    for (auto it = sub.tree.lower_bound(lo);
         it != sub.tree.end() && Str(it->first) < hi; ++it)
        f(it->first, it->second);
}

template <typename F>
void Store::scan(Str lo, Str hi, F f) const {
    if (!hi.empty() && !(lo < hi))
        return;
    auto below_hi = [hi](Str key) {
        return hi.empty() || key < hi;
    };
    auto mit = tree_.lower_bound(lo);
    // Find the first subtable block that can intersect [lo, hi): either
    // the block lo falls inside, or the first block starting at/after lo.
    auto dit = tables_.upper_bound(lo);
    if (dit != tables_.begin()) {
        auto prev = std::prev(dit);
        if (lo.starts_with(prev->first))
            dit = prev;
    }
    // Main-tree keys never sort inside a subtable block (they would have
    // been routed), so emitting whole blocks between main-tree runs keeps
    // global key order.
    for (; dit != tables_.end() && below_hi(dit->first); ++dit) {
        for (; mit != tree_.end() && below_hi(mit->first)
               && mit->first < dit->first;
             ++mit)
            f(mit->first, mit->second);
        const Tree& t = dit->second.tree;
        for (auto it = t.lower_bound(lo); it != t.end() && below_hi(it->first);
             ++it)
            f(it->first, it->second);
    }
    for (; mit != tree_.end() && below_hi(mit->first); ++mit)
        f(mit->first, mit->second);
}

}  // namespace pequod

#endif
