// The table-routed Pequod engine (DESIGN.md §3, §7). Clients put source
// keys and scan ranges; the server partitions the key space into Tables
// by prefix and funnels *every* write — client puts, join sink emission,
// eager fan-out — through one write path that stores the entry in its
// owning table and stabs that table's updater interval map. When a
// scanned range belongs to a join's sink table, the server materializes
// it on first access by executing the join over its sources (first
// freshening any source that is itself a maintained sink), then keeps it
// fresh: every source range consulted during execution registers a
// binding in that range's updater group, and later writes to that range
// — from clients or from another join's emission — eagerly fan the
// change out into the materialized sink entries (§3.2). Joins may
// therefore chain (a sink feeding further joins); only cyclic specs and
// reads of a `pull` join's sink are rejected. `pull` joins skip
// materialization and recompute on every scan.
//
// The write path runs on Str views end to end (§8): routing probes the
// table directory with the key slice, pattern matching binds slots as
// slices of the written key, and sink keys are synthesized into stack
// KeyBufs — so an eager update allocates only when it genuinely creates
// a new stored entry.
#ifndef PEQUOD_CORE_SERVER_HH
#define PEQUOD_CORE_SERVER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#if PEQUOD_VALIDATE
#include <thread>
#endif

#include "common/annotate.hh"
#include "common/base.hh"
#include "common/fnref.hh"
#include "common/str.hh"
#include "core/table.hh"
#include "join/join.hh"
#include "store/store.hh"

namespace pequod {

struct ServerConfig {
    struct StoreConfig {
        bool enable_subtables = true;
    };
    StoreConfig store;
    // §4.2: remember where each updater's previous output landed and hint
    // the next insert there, skipping the tree descent on appends.
    bool enable_output_hints = true;
    // §4.3: a copy join's sink entry references the source entry's value
    // buffer instead of duplicating the bytes; memory_stats() counts each
    // shared buffer once. Off by default so the plain-KV hot path carries
    // no refcount bookkeeping unless a deployment opts in; the shard tier
    // does (shard::ShardConfig).
    bool enable_value_sharing = false;
};

// Where a server's rows live when they are not in its own stores. The
// client-side Pequod of Fig 7 (DESIGN.md §9) runs this engine against a
// join-less store across an RPC boundary: every source read and every
// stored write — client puts and sink emissions alike — goes through
// this seam, while routing, updater maps, valid ranges and the eager
// maintenance loop stay in the Server. A write is pipelined; a scan
// returns the rows of [lo, hi) in key order. get_ptr and scan_stored
// read only local stores, so they see nothing on a remote server.
class RemoteStore {
  public:
    using Rows = std::vector<std::pair<std::string, std::string>>;
    virtual ~RemoteStore() = default;
    virtual void rpc_put(Str key, Str value) = 0;
    virtual Rows rpc_scan(Str lo, Str hi) = 0;
};

class Server {
  public:
    // Called with every source range the engine is about to consult
    // (materialization, backfill, pull recomputation). The distribution
    // layer uses this to subscribe remote base ranges before the local
    // scan runs; the observer may put keys into this server re-entrantly.
    // Takes Str views of the range bounds (valid only during the call) so
    // the common no-op observation allocates nothing (§8).
    using SourceObserver = std::function<void(Str lo, Str hi)>;

    // Called for every *client-origin* write — put() and put_batch() —
    // and never for join emission or eager fan-out: derived entries are
    // recomputable, so the durability tier logs exactly this stream
    // (DESIGN.md §13). Str views are valid only during the call.
    using WriteObserver = std::function<void(Str key, Str value)>;

    // With a `remote` store (not owned) the server's rows live there and
    // its own stores stay empty. §4.3 sharing needs the source entry in
    // a local store, so a remote server always copies.
    Server() : Server(ServerConfig()) {}
    explicit Server(const ServerConfig& config, RemoteStore* remote = nullptr)
        : config_(config),
          root_("", config.store.enable_subtables),
          remote_(remote) {
        if (remote_)
            config_.enable_value_sharing = false;
    }

    void set_subtable_components(const std::string& prefix, int components);

    // Install a join; throws std::runtime_error on a malformed spec, an
    // already-owned sink table, a join cycle, or a read of a pull sink.
    PQ_REQUIRES_OWNER void add_join(const std::string& spec);

    PQ_REQUIRES_OWNER void put(Str key, Str value);

    // The shard worker's batched drain entry (§12): apply a decoded
    // frame's puts in arrival order, reusing one WriteHint across the
    // batch so consecutive writes into the same table skip the directory
    // lookup and most of the tree descent. Exactly equivalent to calling
    // put() per item.
    PQ_REQUIRES_OWNER void put_batch(
        const std::vector<std::pair<std::string, std::string>>& items);

    // Single-owner discipline (§12): a shard worker claims its Server by
    // calling this from the worker thread. In checked builds
    // (-DPEQUOD_VALIDATE=ON) every subsequent put and scan asserts it
    // runs on the owning thread; unbound servers (all existing callers)
    // are never checked, and release builds carry no check at all.
    // unbind_owner_thread() releases the claim (a worker shutting down),
    // returning the server to the unchecked state.
    void bind_owner_thread();
    void unbind_owner_thread();

    // Visit entries in [lo, hi) in key order, materializing join output
    // first when needed. f(const std::string& key, const ValuePtr&).
    template <typename F>
    PQ_REQUIRES_OWNER void scan(Str lo, Str hi, F&& f) {
        FnRef<void(const std::string&, const ValuePtr&)> ref(f);
        scan_impl(lo, hi, ref);
    }

    const Entry* get_ptr(Str key) const {
        return table_for(key).store().get_ptr(key);
    }

    void set_source_observer(SourceObserver observer) {
        observer_ = std::move(observer);
    }

    void set_write_observer(WriteObserver observer) {
        write_observer_ = std::move(observer);
    }

    // Visit stored entries in [lo, hi) in key order with *no*
    // materialization, no freshening, and no observer calls — exactly
    // the bytes present in the stores. The checkpointing path uses this
    // (restricted to base-table ranges) to snapshot durable state
    // without perturbing what is cached. f(const std::string&, const
    // Entry&).
    template <typename F>
    PQ_REQUIRES_OWNER void scan_stored(Str lo, Str hi, F&& f) {
        RawRef ref(f);
        raw_scan(lo, hi, ref);
    }

    // Declare [lo, hi) suspect (§10): erase the cached entries, tear
    // down every updater group registered over a source range inside it,
    // and shrink the valid ranges of the sinks its bindings maintained —
    // cascading through chained joins — so the affected output
    // re-materializes via scan instead of serving possibly-stale data.
    // Returns the number of bindings torn down.
    PQ_REQUIRES_OWNER size_t invalidate_range(Str lo, Str hi);

    // Aggregated over the root table and every routed table.
    MemoryStats memory_stats() const;

    // Re-derive the engine's cross-table invariants (DESIGN.md §11):
    // every table (and its store, valid set, and updater treap) checks
    // out structurally; the table directory never nests prefixes; every
    // interval registered in any updater map names a live updater group;
    // every live group is registered exactly once, over its source range,
    // in the table that owns that range, under the index key its sink
    // files it by, with its bindings sorted and unique; and each shared
    // value buffer's refcount equals the number of stored entries
    // referencing it, so §4.3 sharing can neither leak a buffer nor free
    // one early. Throws InvariantError.
    // Checked-build mode (-DPEQUOD_VALIDATE=ON) runs this automatically
    // after every invalidation cascade.
    PQ_COLDPATH void verify() const;

    // Introspection, mostly for tests and stats reporting.
    // Live updater bindings: one per (source range, sink binding) pair
    // that keeps materialized output fresh.
    size_t updater_count() const {
        return live_bindings_;
    }
    // Live updater groups: one per registered source range.
    size_t updater_group_count() const {
        return live_groups_;
    }
    uint64_t eager_update_count() const {
        return stat_eager_updates_;
    }
    uint64_t invalidation_count() const {
        return stat_invalidations_;
    }
    uint64_t materialization_count() const {
        return stat_materializations_;
    }
    // Source rows visited by join execution (materialization and pull
    // recomputation) — what a relational per-row cost model charges for.
    uint64_t source_rows_scanned() const {
        return stat_source_rows_;
    }

    // Test-only corruption hooks (validation_tests): each breaks one
    // updater-group invariant so the suite can prove verify() catches
    // it, and returns false when no group can be corrupted that way.
    // Swap the first two bindings of a group that has two.
    bool unsort_bindings_for_test();
    // Drop a group's interval but keep the group in its sink's index.
    bool orphan_group_for_test();
    // Set the whole-group mark on a sink subtable whose block the sink's
    // valid set does not cover.
    bool plant_stale_group_mark_for_test();
    // True when a scan of [lo, hi) would be a hot check: served from one
    // marked subtable without consulting the valid set.
    bool hot_check_for_test(Str lo, Str hi) const {
        return fresh_group(lo, hi) != nullptr;
    }

  private:
    using TableMap = std::map<std::string, Table, std::less<>>;
    using ScanRef = FnRef<void(const std::string&, const ValuePtr&)>;
    using RawRef = FnRef<void(const std::string&, const Entry&)>;
    // Join emission carries the source *entry*, not just its bytes, so
    // the sink write can share the source's value buffer (§4.3).
    using EmitRef = FnRef<void(Str, const Entry&)>;

    // Estimated per-Table bookkeeping beyond its store's own accounting:
    // the directory node plus the Table object itself.
    static constexpr size_t kTableDirOverhead = 48 + sizeof(Table);

    // A group's key in its sink's index: the source index byte, then
    // the group's packed bindings.
    static void group_key(int source_index, Str packed, KeyBuf& out);
    Table& table_for(Str key);
    const Table& table_for(Str key) const;
    size_t invalidate_table(Table& t, Str lo, Str hi);
    TableMap::iterator first_overlapping(Str lo);
    Table& make_table(const std::string& prefix);
    Table* route(Str key, WriteHint* hint);
    PQ_NOALLOC void write(Str key, Str value, WriteHint* hint);
    // Store `src`'s value under `key` by reference (value sharing) or by
    // copy, per config_.enable_value_sharing.
    void write_emitted(Str key, const Entry& src, WriteHint* hint);
    void stab(Table& t, Str key, const Entry& stored, bool inserted);
    // The remote-store side of write(), execute() and scan_impl(): rows
    // arrive as strings, so the stab and the join see transient Entries.
    PQ_COLDPATH void write_remote(Table& t, Str key, Str value);
    PQ_COLDPATH void scan_remote(Str lo, Str hi, const RawRef& f);
    // The scan entry. A hot check — a scan inside one materialized group
    // block of a maintained sink — is one subtable probe and one tree
    // walk; everything else takes the general path below it.
    PQ_NOALLOC void scan_impl(Str lo, Str hi, const ScanRef& f);
    // The marked subtable a hot check of [lo, hi) reads, or null.
    const Store::Subtable* fresh_group(Str lo, Str hi) const;
    void raw_scan(Str lo, Str hi, const RawRef& f);
    Table* freshen(Str lo, Str hi);
    void freshen_table(Table& sink_table, Str lo, Str hi);
    // Run the sink's join over the whole range that [lo, hi)'s bound
    // slots determine, and record that range valid.
    PQ_COLDPATH void materialize(Table& sink_table, Str lo, Str hi);
    // Join execution: scans source ranges, installs updaters, emits
    // sink rows. Reached from a put only when a brand-new check-source
    // key installs fresh copy ranges — materialization machinery, cold
    // relative to the eager-update chain (§8), and free to allocate.
    PQ_COLDPATH void execute(Table& sink_table, int source_index,
                             const SlotSet& ss, bool install_updaters,
                             const EmitRef& emit);
    PQ_COLDPATH void install_updater(Table& sink_table, int source_index,
                                     const SlotSet& ss,
                                     const KeyRange& range);
    void apply_update(UpdaterGroup& g, Str key, const Entry& stored,
                      bool inserted);
    PQ_COLDPATH void pull_scan(Table& sink_table, Str lo, Str hi,
                               const ScanRef& f);

#if PEQUOD_VALIDATE
    void assert_owner() const;
#else
    void assert_owner() const {}
#endif

    ServerConfig config_;
    Table root_;       // keys under no routed prefix
    TableMap tables_;  // by prefix; prefixes never nest, so the directory
                       // is also the block order for merged scans
    RemoteStore* remote_ = nullptr;  // null: rows live in the tables' stores
    SourceObserver observer_;
    WriteObserver write_observer_;
    uint64_t stat_eager_updates_ = 0;
    uint64_t stat_materializations_ = 0;
    uint64_t stat_source_rows_ = 0;
    uint64_t stat_invalidations_ = 0;
    size_t live_groups_ = 0;
    size_t live_bindings_ = 0;
#if PEQUOD_VALIDATE
    std::thread::id owner_;
    bool owner_bound_ = false;
#endif
};

}  // namespace pequod

#endif
