// Per-table engine state (DESIGN.md §7). The server partitions the key
// space by table prefix; each Table owns its tree(s) (a Store, whose
// subtable layout handles the within-table grouping of §4.1), the
// interval map of updater groups registered over *this table's* source
// ranges, and — when a join materializes into it — the join itself, its
// updater groups and its valid-range bookkeeping. Routing every write
// through the owning table and stabbing that table's updater map is what
// lets a join consume another join's sink: derived writes trigger
// downstream maintenance exactly like client puts.
#ifndef PEQUOD_CORE_TABLE_HH
#define PEQUOD_CORE_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/interval_map.hh"
#include "common/rangeset.hh"
#include "common/validate.hh"
#include "join/join.hh"
#include "store/store.hh"

namespace pequod {

class Table;

// Write-path hint: the owning table from the previous write plus the
// in-table position hint, letting an eager append skip both the
// server-level table routing and most of the tree descent.
struct WriteHint {
    Table* table = nullptr;
    Store::Hint store;
};

// One maintenance obligation inside an updater group: the bound slots
// the group's source pattern does not use (the follower, in a timeline
// join), packed as OwnedSlots packs them into the group's arena, plus
// where this binding's previous output landed (§4.2). Trivially
// copyable, so inserting into the sorted array is a memmove.
struct UpdaterBinding {
    // The packed bytes' first eight, big-endian and zero-padded: ordering
    // by (order, bytes) is ordering by the bytes, and most comparisons
    // never leave the array.
    uint64_t order = 0;
    uint32_t off = 0;  // the packed slots are arena[off, off + len)
    uint32_t len = 0;
    WriteHint out;
};

// Every maintenance obligation of one join source over one source range
// (DESIGN.md §3): "source `source_index` of the join materializing into
// `sink_table`, with the pattern's slots bound to `bound`, feeds these
// bindings' output". The range derives from `bound`, so one interval-map
// entry serves every binding, and a write stabs and re-matches once per
// group. Groups live in their sink's index, whose nodes never move; the
// interval maps point at them.
struct UpdaterGroup {
    Table* sink_table = nullptr;
    int source_index = 0;
    OwnedSlots bound;
    // Every binding's packed slots. Append-only: a binding leaves only
    // with its whole group.
    std::string arena;
    // Sorted by their packed slots, unique, never empty.
    std::vector<UpdaterBinding> bindings;
    // Bumped by every binding insert, so a stab loop notices an install
    // that re-entered it (DESIGN.md §3).
    uint64_t version = 0;

    Str slots(const UpdaterBinding& b) const {
        return Str(arena.data() + b.off, b.len);
    }

    static uint64_t order_of(Str packed) {
        uint64_t order = 0;
        for (size_t i = 0; i < 8; ++i)
            order = (order << 8)
                | (i < packed.size() ? static_cast<unsigned char>(packed[i])
                                     : 0u);
        return order;
    }

    // Index of the first binding whose packed slots are not below
    // `packed`.
    size_t lower_bound(Str packed) const {
        uint64_t order = order_of(packed);
        auto it = std::lower_bound(
            bindings.begin(), bindings.end(), packed,
            [this, order](const UpdaterBinding& b, Str x) {
                return b.order < order
                    || (b.order == order && slots(b) < x);
            });
        return static_cast<size_t>(it - bindings.begin());
    }
};

class Table {
  public:
    // State of the join whose sink this table is (at most one; a second
    // join claiming the same sink is rejected at add_join).
    struct Sink {
        Join join;
        // Materialized sink ranges: scans inside them are served straight
        // from the store.
        RangeSet valid;
        // This join's updater groups, keyed by the source index byte
        // followed by the group's packed bindings, so overlapping
        // materializations (a whole-table scan after per-user scans, say)
        // find the group and binding already installed.
        std::unordered_map<std::string, UpdaterGroup, StrHash, StrEqual>
            groups;
    };

    Table(std::string prefix, bool enable_subtables)
        : prefix_(std::move(prefix)),
          prefix_hi_(prefix_successor(prefix_)),
          store_(enable_subtables) {}
    Table(const Table&) = delete;
    Table& operator=(const Table&) = delete;

    const std::string& prefix() const {
        return prefix_;
    }
    // Cached prefix_successor(prefix()): the exclusive upper bound of this
    // table's key block ("" == +infinity), computed once instead of per
    // scan/freshen.
    const std::string& prefix_upper() const {
        return prefix_hi_;
    }
    Store& store() {
        return store_;
    }
    const Store& store() const {
        return store_;
    }

    bool is_sink() const {
        return sink_ != nullptr;
    }
    Sink& sink() {
        return *sink_;
    }
    const Sink& sink() const {
        return *sink_;
    }
    // Install `join` as this table's producer; the caller has already
    // rejected duplicate sinks.
    void attach_sink(Join join) {
        sink_ = std::make_unique<Sink>();
        sink_->join = std::move(join);
    }

    // Declare [lo, hi) suspect (§10): erase the stored entries and, when
    // this table is a join sink, shrink the valid set so the next scan
    // re-materializes the range instead of serving what might be stale.
    // The erase also clears the whole-group mark of every subtable whose
    // block meets the range, which keeps "marked implies covered" true.
    // The server layers updater teardown and chained-join cascade on top.
    size_t invalidate_range(Str lo, Str hi) {
        size_t erased = store_.erase_range(lo, hi);
        if (sink_)
            sink_->valid.subtract(lo, hi);
        return erased;
    }

    // Whether this sink's valid set covers all of `sub`'s group block:
    // the condition a whole-group mark stands for.
    bool covers_group(const Store::Subtable& sub) const {
        KeyBuf end;
        Store::block_end(sub, end);
        return sink_->valid.covers(*sub.prefix, end);
    }

    // Updater groups whose source range lies in this table, one interval
    // per group. Only puts routed to this table can affect those ranges,
    // so the per-table map keeps the stab for a sink-table write free
    // unless a chained join actually reads it.
    IntervalMap<UpdaterGroup*>& updaters() {
        return updaters_;
    }
    const IntervalMap<UpdaterGroup*>& updaters() const {
        return updaters_;
    }

    // Reused stab scratch. Safe to keep per-table: a write only re-enters
    // the write path through a *downstream* table, and join cycles are
    // rejected, so one table's scratch is never reused reentrantly.
    std::vector<UpdaterGroup*>& stab_scratch() {
        return stab_scratch_;
    }

    // Re-derive this table's invariants (DESIGN.md §11): the store and
    // updater map check out structurally, every key the store holds lies
    // inside this table's block, and — when this table is a join sink —
    // every materialized (valid) range lies inside the block too, so a
    // scan that trusts the valid set can only be served keys this table
    // actually owns. A whole-group mark appears only in a maintained
    // sink's store, and only on a group whose block the valid set
    // covers: a hot check trusts the mark alone. Throws InvariantError
    // on the first break.
    PQ_COLDPATH void verify() const {
        store_.verify();
        updaters_.verify();
        if (!prefix_.empty()) {
            store_.scan(Str(), Str(), [this](const std::string& key,
                                             const Entry&) {
                if (!Str(key).starts_with(prefix_)
                    || !(prefix_hi_.empty() || Str(key) < Str(prefix_hi_)))
                    invariant_fail("Table", "stored key outside the table "
                                            "block: " + key);
            });
        }
        store_.for_each_group([this](const Store::Subtable& sub) {
            if (!sub.materialized)
                return;
            if (!sink_ || !sink_->join.maintained())
                invariant_fail("Table", "whole-group mark outside a "
                                        "maintained sink: " + *sub.prefix);
            if (!covers_group(sub))
                invariant_fail("Table", "marked group not covered by the "
                                        "valid set: " + *sub.prefix);
        });
        if (!sink_)
            return;
        sink_->valid.verify();
        for (const auto& range : sink_->valid.ranges()) {
            if (Str(range.first) < Str(prefix_))
                invariant_fail("Table", "valid range starts before the "
                                        "sink block: " + range.first);
            if (!prefix_hi_.empty()
                && (range.second.empty()
                    || Str(prefix_hi_) < Str(range.second)))
                invariant_fail("Table", "valid range extends past the "
                                        "sink block: lo=" + range.first);
        }
    }

  private:
    std::string prefix_;  // "" for the root (unrouted-key) table
    std::string prefix_hi_;
    Store store_;
    std::unique_ptr<Sink> sink_;
    IntervalMap<UpdaterGroup*> updaters_;
    std::vector<UpdaterGroup*> stab_scratch_;
};

}  // namespace pequod

#endif
