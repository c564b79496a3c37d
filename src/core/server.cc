#include "core/server.hh"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/validate.hh"

namespace pequod {

Table& Server::table_for(Str key) {
    return const_cast<Table&>(std::as_const(*this).table_for(key));
}

const Table& Server::table_for(Str key) const {
    auto it = tables_.upper_bound(key);
    if (it != tables_.begin()) {
        --it;
        if (key.starts_with(it->first))
            return it->second;
    }
    return root_;
}

// First directory entry whose block [prefix, prefix_successor(prefix))
// can intersect a range starting at `lo`: the block containing lo, else
// the first block at or after it.
Server::TableMap::iterator Server::first_overlapping(Str lo) {
    auto it = tables_.upper_bound(lo);
    if (it != tables_.begin()) {
        auto prev = std::prev(it);
        if (lo.starts_with(prev->first))
            it = prev;
    }
    return it;
}

Table& Server::make_table(const std::string& prefix) {
    auto it = tables_.find(prefix);
    if (it != tables_.end())
        return it->second;
    // Callers pre-check prefix conflicts; enforce the non-nesting
    // invariant anyway, since routing and merged scans both rely on it.
    auto up = tables_.upper_bound(prefix);
    if (up != tables_.end() && starts_with(up->first, prefix))
        throw std::logic_error("table prefixes conflict: " + up->first
                               + " vs " + prefix);
    if (up != tables_.begin() && starts_with(prefix, std::prev(up)->first))
        throw std::logic_error("table prefixes conflict: "
                               + std::prev(up)->first + " vs " + prefix);
    Table& t = tables_
                   .emplace(std::piecewise_construct,
                            std::forward_as_tuple(prefix),
                            std::forward_as_tuple(
                                prefix, config_.enable_subtables))
                   .first->second;
    // Adopt keys put before this prefix was routed, so the table's store
    // is the single home of its range from here on.
    const std::string& hi = t.prefix_upper();
    std::vector<std::pair<std::string, std::string>> moved;
    root_.store().scan(prefix, hi,
                       [&moved](const std::string& k, const Entry& e) {
                           moved.emplace_back(k, e.value());
                       });
    if (!moved.empty()) {
        root_.store().erase_range(prefix, hi);
        for (const auto& kv : moved)
            t.store().put(kv.first, kv.second);
    }
    return t;
}

void Server::set_subtable_components(const std::string& prefix,
                                     int components) {
    if (prefix.empty())
        throw std::invalid_argument("bad subtable spec");
    Table& t = table_for(prefix);
    if (&t != &root_) {
        // An existing table covers this prefix: group within its store.
        t.store().set_subtable_components(prefix, components);
        return;
    }
    auto up = tables_.lower_bound(prefix);
    if (up != tables_.end() && starts_with(up->first, prefix))
        throw std::logic_error("table prefixes conflict: " + up->first
                               + " vs " + prefix);
    make_table(prefix).store().set_subtable_components(prefix, components);
}

void Server::add_join(const std::string& spec) {
    auto js = std::make_unique<Join>();
    js->parse(spec);
    const std::string& sink = js->sink().table_prefix();
    for (int i = 0; i < js->nsource(); ++i)
        if (js->source(i).table_prefix().empty())
            throw std::runtime_error(
                "source pattern needs a literal table prefix: " + spec);

    // Existing joins, for sink-ownership, pull-chain, and cycle checks.
    std::vector<const Join*> joins;
    for (const auto& entry : tables_)
        if (entry.second.is_sink())
            joins.push_back(&entry.second.sink().join);

    for (const Join* other : joins) {
        const std::string& other_sink = other->sink().table_prefix();
        if (prefixes_overlap(other_sink, sink))
            throw std::runtime_error("a join already owns sink table '"
                                     + other_sink + "'");
        // A pull sink is computed on demand and never stored, so there is
        // nothing for a downstream join to scan or stab: reject reads of
        // it in either installation order.
        if (!other->maintained())
            for (int i = 0; i < js->nsource(); ++i)
                if (prefixes_overlap(js->source(i).table_prefix(),
                                     other_sink))
                    throw std::runtime_error(
                        "a pull join's sink table '" + other_sink
                        + "' cannot feed another join");
        if (!js->maintained())
            for (int i = 0; i < other->nsource(); ++i)
                if (prefixes_overlap(other->source(i).table_prefix(), sink))
                    throw std::runtime_error(
                        "a pull join's sink table '" + sink
                        + "' cannot feed another join");
    }

    // Chained joins are supported — every write routes through the owning
    // table and stabs its updaters, so derived writes maintain downstream
    // joins like client puts — but a dependency cycle would make
    // materialization (and pull recomputation) non-terminating: reject.
    joins.push_back(js.get());
    size_t self = joins.size() - 1;
    auto depends = [&joins](size_t a, size_t b) {
        const std::string& b_sink = joins[b]->sink().table_prefix();
        for (int i = 0; i < joins[a]->nsource(); ++i)
            if (prefixes_overlap(joins[a]->source(i).table_prefix(), b_sink))
                return true;
        return false;
    };
    std::vector<size_t> stack{self};
    std::vector<bool> visited(joins.size(), false);
    while (!stack.empty()) {
        size_t at = stack.back();
        stack.pop_back();
        for (size_t next = 0; next < joins.size(); ++next) {
            if (!depends(at, next))
                continue;
            if (next == self)
                throw std::runtime_error("join cycle unsupported: " + spec);
            if (!visited[next]) {
                visited[next] = true;
                stack.push_back(next);
            }
        }
    }

    // Pre-check table conflicts so a rejected spec creates no tables.
    for (const auto& entry : tables_) {
        if (entry.first != sink && prefixes_overlap(entry.first, sink))
            throw std::runtime_error("sink table '" + sink
                                     + "' conflicts with table '"
                                     + entry.first + "'");
        for (int i = 0; i < js->nsource(); ++i) {
            const std::string& src = js->source(i).table_prefix();
            // A source may read within an existing (broader) table, but a
            // source range spanning several tables cannot be routed.
            if (entry.first.size() > src.size()
                && starts_with(entry.first, src))
                throw std::runtime_error("source table '" + src
                                         + "' conflicts with table '"
                                         + entry.first + "'");
        }
    }
    // Create source tables shortest-prefix first, so a broader source
    // ("s|") becomes the covering table for a narrower one ("s|ann|").
    std::vector<std::string> sources;
    for (int i = 0; i < js->nsource(); ++i)
        sources.push_back(js->source(i).table_prefix());
    std::sort(sources.begin(), sources.end(),
              [](const std::string& a, const std::string& b) {
                  return a.size() < b.size();
              });
    for (const std::string& src : sources)
        if (&table_for(src) == &root_)
            make_table(src);
    Table& sink_table = make_table(sink);
    // §4.1: group the sink store by the sink pattern's leading slot (one
    // subtable per user timeline, say) so maintenance appends land in a
    // small per-group tree instead of one ever-growing table tree. Only
    // when the pattern actually has a component structure to group by,
    // and without overriding an explicit configuration.
    if (js->sink().text().find('|', sink.size()) != std::string::npos
        && sink_table.store().size() == 0
        && !sink_table.store().has_subtable_spec(sink))
        sink_table.store().set_subtable_components(sink, 1);
    sink_table.attach_sink(std::move(*js));
}

void Server::put(Str key, Str value) {
    assert_owner();
    write(key, value, nullptr);
    if (write_observer_)
        write_observer_(key, value);
}

// One WriteHint threaded through the whole batch: a frame full of posts
// into the same table routes once and appends near the previous insert.
void Server::put_batch(const std::vector<std::pair<std::string,
                                                   std::string>>& items) {
    assert_owner();
    WriteHint hint;
    for (const auto& kv : items) {
        write(kv.first, kv.second, &hint);
        if (write_observer_)
            write_observer_(kv.first, kv.second);
    }
}

void Server::bind_owner_thread() {
#if PEQUOD_VALIDATE
    owner_ = std::this_thread::get_id();
    owner_bound_ = true;
#endif
}

void Server::unbind_owner_thread() {
#if PEQUOD_VALIDATE
    owner_bound_ = false;
#endif
}

#if PEQUOD_VALIDATE
void Server::assert_owner() const {
    if (owner_bound_ && owner_ != std::this_thread::get_id())
        throw InvariantError("Server accessed off its bound owner thread");
}
#endif

// Hint fast path: reuse the previous write's table when the key provably
// belongs there (prefixes never nest, so a prefix match is ownership),
// skipping the directory lookup.
Table* Server::route(Str key, WriteHint* hint) {
    if (hint && hint->table && hint->table != &root_
        && key.starts_with(hint->table->prefix()))
        return hint->table;
    Table* t = &table_for(key);
    if (hint) {
        // The store-level hint indexes into the previous table's trees;
        // crossing tables (a batch mixing "s|" and "p|" keys, say) must
        // drop it or the insert lands in the wrong store.
        if (hint->table != t)
            hint->store = Store::Hint();
        hint->table = t;
    }
    return t;
}

// The unified write path: stab the owning table's updater groups whether
// this write came from a client or from another join's emission, so
// chained joins stay eagerly fresh. Collect first, then apply: applying
// an update can install new groups (e.g. a new check-source match pulls
// in a fresh copy range), and the interval map must not mutate mid-stab.
// The per-table scratch cannot be re-entered: recursion only descends
// into downstream tables, and cycles are rejected at add_join. `stored`
// stays valid throughout for the same reason — recursion never erases or
// rebalances the upstream table holding it.
void Server::stab(Table& t, Str key, const Entry& stored, bool inserted) {
    if (t.updaters().empty())
        return;
    std::vector<UpdaterGroup*>& hits = t.stab_scratch();
    hits.clear();
    t.updaters().stab(key, [&hits](UpdaterGroup* const& g) {
        // Per-table scratch reuses warm capacity; growth only while
        // the hit count sets a new high-water mark.
        // pqcheck: allow(no-alloc)
        hits.push_back(g);
    });
    for (UpdaterGroup* g : hits)
        apply_update(*g, key, stored, inserted);
}

void Server::write(Str key, Str value, WriteHint* hint) {
    Table* t = route(key, hint);
    if (remote_)
        return write_remote(*t, key, value);
    bool inserted = false;
    Entry* e =
        t->store().put(key, value, hint ? &hint->store : nullptr, &inserted);
    stab(*t, key, *e, inserted);
}

void Server::write_emitted(Str key, const Entry& src, WriteHint* hint) {
    if (!config_.enable_value_sharing)
        return write(key, src.value(), hint);
    Table* t = route(key, hint);
    bool inserted = false;
    Entry* e = t->store().put_shared(key, src.share_value(),
                                     hint ? &hint->store : nullptr,
                                     &inserted);
    stab(*t, key, *e, inserted);
}

// The remote store cannot say whether the key existed, so a remote write
// stabs as an insert: a non-final source re-runs the rest of the join on
// every write, which is idempotent (same sink keys and values), and
// the groups' binding arrays keep the updaters unique.
void Server::write_remote(Table& t, Str key, Str value) {
    remote_->rpc_put(key, value);
    if (t.updaters().empty())
        return;
    Entry row;
    row.set_value(value);
    stab(t, key, row, true);
}

void Server::scan_remote(Str lo, Str hi, const RawRef& f) {
    for (auto& row : remote_->rpc_scan(lo, hi)) {
        Entry e(std::move(row.second));
        f(row.first, e);
    }
}

void Server::scan_impl(Str lo, Str hi, const ScanRef& f) {
    assert_owner();
    auto visit = [&f](const std::string& key, const Entry& e) {
        ValuePtr v = &e.value();
        f(key, v);
    };
    if (const Store::Subtable* sub = fresh_group(lo, hi))
        return Store::scan_group(*sub, lo, hi, visit);
    // Freshen every maintained sink the range overlaps; a scan may span
    // several tables (or tables plus unrouted keys).
    if (Table* t = freshen(lo, hi)) {
        // Pull joins store nothing, so their results cannot be merged
        // into the store scan below; support only confined scans.
        Str table_hi = t->prefix_upper();
        bool confined = lo >= Str(t->prefix())
            && (table_hi.empty() || (!hi.empty() && hi <= table_hi));
        if (!confined)
            throw std::logic_error("scan spanning a pull join's sink table '"
                                   + t->prefix() + "' is unsupported");
        pull_scan(*t, lo, hi, f);
        return;
    }
    if (remote_)
        scan_remote(lo, hi, visit);
    else
        raw_scan(lo, hi, visit);
}

// Merge the root table's entries with the routed tables' blocks back
// into one ordered stream. Routed keys always carry their table's
// prefix, so emitting whole blocks between root runs keeps global key
// order.
void Server::raw_scan(Str lo, Str hi, const RawRef& f) {
    Str cursor = lo;
    for (auto it = first_overlapping(lo);
         it != tables_.end() && (hi.empty() || Str(it->first) < hi); ++it) {
        root_.store().scan(cursor, it->first, f);
        Str table_hi = it->second.prefix_upper();
        it->second.store().scan(lo, min_bound(table_hi, hi), f);
        if (table_hi.empty())
            return;  // the block extends to +infinity
        cursor = table_hi;
    }
    root_.store().scan(cursor, hi, f);
}

// Materialize any maintained sink overlapping [lo, hi) — a scanned
// range, or one a join execution is about to consult, which may itself
// be another join's output. Stops at, and returns, the first pull sink
// in the range; execution never meets one, since reads of pull sinks
// are rejected at add_join.
Table* Server::freshen(Str lo, Str hi) {
    for (auto it = first_overlapping(lo);
         it != tables_.end() && (hi.empty() || Str(it->first) < hi); ++it) {
        Table& t = it->second;
        if (!t.is_sink())
            continue;
        if (!t.sink().join.maintained())
            return &t;
        Str mlo = lo < Str(t.prefix()) ? Str(t.prefix()) : lo;
        Str mhi = min_bound(t.prefix_upper(), hi);
        freshen_table(t, mlo, mhi);
    }
    return nullptr;
}

// Only a maintained sink's store carries whole-group marks, and a remote
// server's stores hold no subtables, so a mark alone proves the scan is
// a confined read of fresh output; spanning or short-key ranges, disabled
// subtables and empty groups find no marked subtable.
const Store::Subtable* Server::fresh_group(Str lo, Str hi) const {
    const Store::Subtable* sub = table_for(lo).store().confined_group(lo, hi);
    return sub && sub->materialized ? sub : nullptr;
}

// The valid set is the authority; a group's mark is a cached "this whole
// block is covered" that saves its descent. A covered check of an
// unmarked group (after a whole-sink scan, say) marks it for next time.
void Server::freshen_table(Table& sink_table, Str lo, Str hi) {
    Store::Subtable* sub = sink_table.store().confined_group(lo, hi);
    if (sub && sub->materialized)
        return;
    if (!sink_table.sink().valid.covers(lo, hi))
        return materialize(sink_table, lo, hi);
    if (sub)
        sub->materialized = sink_table.covers_group(*sub);
}

void Server::materialize(Table& sink_table, Str lo, Str hi) {
    Table::Sink& sk = sink_table.sink();
    // Materialize at updater-range granularity: compute the whole sink
    // range the scan's bound slots determine (typically one user's
    // timeline), so follow-up scans of subranges hit the valid set and
    // eager updates keep the entire range fresh.
    SlotSet ss = sk.join.sink().derive_slot_set(lo, hi);
    KeyRange out = sk.join.sink().containing_range(ss);
    auto emit = [this](Str key, const Entry& src) {
        write_emitted(key, src, nullptr);
    };
    EmitRef emit_ref(emit);
    execute(sink_table, 0, ss, true, emit_ref);
    sk.valid.add(out.lo, out.hi);
    // A range that is exactly one group's block marks its subtable, if
    // the join emitted any row into it.
    Store::Subtable* sub = sink_table.store().confined_group(out.lo, out.hi);
    if (sub && Store::is_block(*sub, out.lo, out.hi))
        sub->materialized = true;
    ++stat_materializations_;
}

void Server::execute(Table& sink_table, int source_index, const SlotSet& ss,
                     bool install_updaters, const EmitRef& emit) {
    const Join& join = sink_table.sink().join;
    const Pattern& pat = join.source(source_index);
    KeyRange range = pat.containing_range(ss);
    bool last = source_index + 1 == join.nsource();
    // Let the distribution layer pull the range from its home server
    // first (the observer may put keys re-entrantly), then materialize it
    // locally if it is itself a maintained join's output.
    if (observer_)
        observer_(range.lo, range.hi);
    freshen(range.lo, range.hi);
    if (install_updaters)
        install_updater(sink_table, source_index, ss, range);
    auto visit = [&](const std::string& key, const Entry& e) {
        ++stat_source_rows_;
        SlotSet bound = ss;
        if (!pat.match(key, bound))
            return;
        if (last) {
            KeyBuf sink_key;
            join.sink().expand(bound, sink_key);
            emit(sink_key.view(), e);
        } else {
            execute(sink_table, source_index + 1, bound, install_updaters,
                    emit);
        }
    };
    // Source ranges never span tables: add_join gives every source prefix
    // a covering table, so the containing range lives in one store.
    if (remote_)
        scan_remote(range.lo, range.hi, visit);
    else
        table_for(range.lo).store().scan(range.lo, range.hi, visit);
}

void Server::group_key(int source_index, Str packed, KeyBuf& out) {
    out.push_back(static_cast<char>(source_index));
    out.append(packed);
}

// Register maintenance for source `source_index` under the bindings
// `ss`: find or create the group for the source range — the slots the
// source pattern uses determine it — then binary-search the binding of
// the remaining slots into the group's array. Installing a binding that
// is already there changes nothing, so overlapping materializations
// cannot duplicate maintenance work.
void Server::install_updater(Table& sink_table, int source_index,
                             const SlotSet& ss, const KeyRange& range) {
    Table::Sink& sk = sink_table.sink();
    unsigned used = sk.join.source(source_index).slot_mask();
    KeyBuf bound;
    OwnedSlots::pack(ss, used, bound);
    KeyBuf id;
    group_key(source_index, bound.view(), id);
    auto it = sk.groups.find(id.view());
    if (it == sk.groups.end()) {
        std::string key(id.data(), id.size());
        it = sk.groups.try_emplace(std::move(key)).first;
        UpdaterGroup& g = it->second;
        g.sink_table = &sink_table;
        g.source_index = source_index;
        g.bound.assign(ss, used);
        table_for(range.lo).updaters().insert(range.lo, range.hi, &g);
        ++live_groups_;
    }
    UpdaterGroup& g = it->second;
    KeyBuf rest;
    OwnedSlots::pack(ss, ~used, rest);
    size_t pos = g.lower_bound(rest.view());
    if (pos < g.bindings.size() && g.slots(g.bindings[pos]) == rest.view())
        return;
    UpdaterBinding b;
    b.order = UpdaterGroup::order_of(rest.view());
    b.off = static_cast<uint32_t>(g.arena.size());
    b.len = static_cast<uint32_t>(rest.size());
    g.arena.append(rest.data(), rest.size());
    g.bindings.insert(g.bindings.begin() + static_cast<ptrdiff_t>(pos), b);
    ++g.version;
    ++live_bindings_;
}

size_t Server::invalidate_range(Str lo, Str hi) {
    ++stat_invalidations_;
    size_t torn = invalidate_table(root_, lo, hi);
    for (auto it = first_overlapping(lo);
         it != tables_.end() && (hi.empty() || Str(it->first) < hi); ++it) {
        Table& t = it->second;
        Str mlo = lo < Str(t.prefix()) ? Str(t.prefix()) : lo;
        Str mhi = min_bound(t.prefix_upper(), hi);
        torn += invalidate_table(t, mlo, mhi);
    }
    // The invalidation cascade is the engine's most intricate mutation —
    // it edits stores, valid sets, and updater maps across chained
    // tables — so checked builds re-verify the whole engine after it.
    PQ_AUTOVALIDATE(verify());
    return torn;
}

// One table's share of an invalidation: wipe the stored entries and any
// sink validity over [lo, hi), then tear down the updater groups
// registered over source ranges inside it. Each torn binding's sink
// output range is recursively invalidated — that is what cascades a
// suspect base range through chained joins. Termination: join cycles are
// rejected at add_join, so the recursion only descends into downstream
// tables and never meets a group collected here.
size_t Server::invalidate_table(Table& t, Str lo, Str hi) {
    t.invalidate_range(lo, hi);
    if (t.updaters().empty())
        return 0;
    // Collect first: the recursion below may erase intervals from other
    // tables' maps, but never re-enters this one mid-traversal.
    std::vector<UpdaterGroup*> removed;
    t.updaters().erase_overlapping(lo, hi,
                                   [&removed](UpdaterGroup* const& g) {
                                       removed.push_back(g);
                                   });
    size_t torn = 0;
    for (UpdaterGroup* g : removed) {
        Table& sink_table = *g->sink_table;
        Table::Sink& sk = sink_table.sink();
        torn += g->bindings.size();
        live_bindings_ -= g->bindings.size();
        --live_groups_;
        SlotSet group_slots = g->bound.view();
        for (const UpdaterBinding& b : g->bindings) {
            SlotSet ss = group_slots;
            OwnedSlots::unpack(g->slots(b), ss);
            KeyRange out = sk.join.sink().containing_range(ss);
            torn += invalidate_table(sink_table, out.lo, out.hi);
        }
        // Forget the group so the next materialization re-installs
        // maintenance for this source range.
        KeyBuf id;
        group_key(g->source_index, g->bound.packed(), id);
        sk.groups.erase(sk.groups.find(id.view()));
    }
    return torn;
}

// One stabbed group: re-match the source pattern once, then run every
// binding. Each binding's bytes are copied to the stack before it runs:
// its work can re-enter installation (a chained join materializing this
// join's sink) and grow this very array. Bindings are never removed while
// a write is in flight, so when `version` moves the loop finds its own
// binding again and carries on after it; a binding inserted meanwhile
// was installed by a scan that already saw this write.
void Server::apply_update(UpdaterGroup& g, Str key, const Entry& stored,
                          bool inserted) {
    const Join& join = g.sink_table->sink().join;
    SlotSet matched;
    OwnedSlots::unpack(g.bound.packed(), matched);
    if (!join.source(g.source_index).match(key, matched))
        return;
    bool last = g.source_index + 1 == join.nsource();
    // Overwriting an existing non-final (check) key: its downstream
    // ranges were already copied and registered when it first appeared;
    // re-executing would only repeat that work.
    if (!last && !inserted)
        return;
    KeyBuf slots;
    for (size_t k = 0; k < g.bindings.size(); ++k) {
        UpdaterBinding& b = g.bindings[k];
        slots.clear();
        slots.append(g.slots(b));
        SlotSet bound = matched;
        OwnedSlots::unpack(slots.view(), bound);
        uint64_t version = g.version;
        if (last) {
            KeyBuf sink_key;
            join.sink().expand(bound, sink_key);
            // The write is done with the hint before it stabs any
            // downstream table, so a re-entrant install cannot move `b`
            // from under it.
            write_emitted(sink_key.view(), stored,
                          config_.enable_output_hints ? &b.out : nullptr);
            ++stat_eager_updates_;
        } else {
            // A non-final source gained a key (e.g. a new subscription):
            // run the rest of the join under the extended bindings,
            // copying existing source entries and installing updaters
            // for the new ranges.
            auto emit = [this](Str out_key, const Entry& src) {
                write_emitted(out_key, src, nullptr);
            };
            EmitRef emit_ref(emit);
            execute(*g.sink_table, g.source_index + 1, bound, true,
                    emit_ref);
        }
        if (g.version != version)
            k = g.lower_bound(slots.view());
    }
}

void Server::pull_scan(Table& sink_table, Str lo, Str hi, const ScanRef& f) {
    std::map<std::string, std::string, std::less<>> results;
    SlotSet ss = sink_table.sink().join.sink().derive_slot_set(lo, hi);
    auto emit = [&results](Str key, const Entry& src) {
        // Pull recomputation owns its transient result set; this is the
        // documented non-materializing slow path. pqcheck: allow(hot-string)
        results.insert_or_assign(key.str(), src.value());
    };
    EmitRef emit_ref(emit);
    execute(sink_table, 0, ss, false, emit_ref);
    for (auto it = results.lower_bound(lo); it != results.end(); ++it) {
        if (!hi.empty() && !(Str(it->first) < hi))
            break;
        ValuePtr v = &it->second;
        f(it->first, v);
    }
}

void Server::verify() const {
    // Per-table structural walks, plus directory order/nesting.
    root_.verify();
    const std::string* prev = nullptr;
    for (const auto& entry : tables_) {
        if (entry.first != entry.second.prefix())
            invariant_fail("Server", "table prefix disagrees with its "
                                     "directory key: " + entry.first);
        if (prev && starts_with(entry.first, *prev))
            invariant_fail("Server",
                           "nested table prefixes: " + *prev + " vs "
                               + entry.first);
        prev = &entry.first;
        entry.second.verify();
    }

    // Updater groups. Every interval in any updater map must name a
    // live group, and each live group must be registered exactly once,
    // over its own source range, in the table that owns that range — a
    // surviving interval of a torn-down group would stab into freed
    // state, and a group with no interval is maintenance that silently
    // stopped firing. A group's bindings must be sorted and unique (the
    // install search and the stab loop's resume both rely on it), bind
    // only slots its source pattern leaves open, and the sink's index
    // must file the group under its own key.
    struct Registration {
        const Table* table;
        const std::string* lo;
        const std::string* hi;
        size_t count;
    };
    std::unordered_map<const UpdaterGroup*, Registration> registered;
    auto count_table = [&registered](const Table& t) {
        t.updaters().for_each([&registered, &t](const std::string& lo,
                                                const std::string& hi,
                                                UpdaterGroup* const& g) {
            Registration& r = registered[g];
            r = Registration{&t, &lo, &hi, r.count + 1};
        });
    };
    count_table(root_);
    for (const auto& entry : tables_)
        count_table(entry.second);
    size_t groups = 0, bindings = 0;
    auto check_sink = [&](const Table& sink_table) {
        const Table::Sink& sk = sink_table.sink();
        for (const auto& [key, g] : sk.groups) {
            ++groups;
            bindings += g.bindings.size();
            if (g.sink_table != &sink_table)
                invariant_fail("Server", "updater group names another "
                                         "sink table");
            if (g.source_index < 0 || g.source_index >= sk.join.nsource())
                invariant_fail("Server", "updater group names a source "
                                         "its join lacks");
            KeyBuf id;
            group_key(g.source_index, g.bound.packed(), id);
            if (id.view() != Str(key))
                invariant_fail("Server", "sink's group index files a "
                                         "group under another key");
            const Pattern& pat = sk.join.source(g.source_index);
            if (g.bound.mask() & ~pat.slot_mask())
                invariant_fail("Server", "updater group binds a slot its "
                                         "source pattern lacks");
            if (g.bindings.empty())
                invariant_fail("Server", "updater group has no bindings");
            for (size_t i = 0; i < g.bindings.size(); ++i) {
                const UpdaterBinding& b = g.bindings[i];
                if (size_t(b.off) + b.len > g.arena.size() || b.len == 0)
                    invariant_fail("Server", "updater binding outside its "
                                             "group's arena");
                Str packed = g.slots(b);
                if (b.order != UpdaterGroup::order_of(packed))
                    invariant_fail("Server", "updater binding's order key "
                                             "disagrees with its slots");
                if (static_cast<unsigned char>(packed[0]) & pat.slot_mask())
                    invariant_fail("Server", "updater binding repeats a "
                                             "slot of its group");
                if (i > 0 && !(g.slots(g.bindings[i - 1]) < packed))
                    invariant_fail("Server", "updater bindings out of "
                                             "order or duplicated");
            }
            auto r = registered.find(&g);
            if (r == registered.end() || r->second.count != 1)
                invariant_fail(
                    "Server",
                    "live updater group registered "
                        + std::to_string(r == registered.end()
                                             ? 0
                                             : r->second.count)
                        + " times (expected exactly 1)");
            KeyRange range = pat.containing_range(g.bound.view());
            if (*r->second.lo != range.lo || *r->second.hi != range.hi)
                invariant_fail("Server", "updater group registered over "
                                         "another range (lo="
                                         + *r->second.lo + ")");
            if (r->second.table != &table_for(range.lo))
                invariant_fail("Server", "updater group registered in a "
                                         "table that does not own its "
                                         "source range");
            registered.erase(r);
        }
    };
    for (const auto& entry : tables_)
        if (entry.second.is_sink())
            check_sink(entry.second);
    if (!registered.empty())
        invariant_fail("Server", "updater interval survives its torn-down "
                                 "group (lo="
                                     + *registered.begin()->second.lo + ")");
    if (groups != live_groups_ || bindings != live_bindings_)
        invariant_fail("Server", "live updater counts disagree with the "
                                 "groups' bindings");

    // §4.3 refcount reconciliation: every reference to a shared buffer
    // is held by exactly one stored entry, so each buffer's refcount
    // must equal the number of entries (owner + sharers) that point at
    // it. More means a leaked reference; fewer means an early free.
    std::unordered_map<const SharedValue*, uint32_t> buffer_refs;
    auto count_store = [&buffer_refs](const Store& store) {
        store.scan(Str(), Str(),
                   [&buffer_refs](const std::string&, const Entry& e) {
                       if (const SharedValue* sv =
                               e.shared_buffer_for_validate())
                           ++buffer_refs[sv];
                   });
    };
    count_store(root_.store());
    for (const auto& entry : tables_)
        count_store(entry.second.store());
    for (const auto& kv : buffer_refs)
        if (kv.first->refs() != kv.second)
            invariant_fail(
                "Server",
                "shared value refcount " + std::to_string(kv.first->refs())
                    + " disagrees with its " + std::to_string(kv.second)
                    + " referencing entries");
}

bool Server::unsort_bindings_for_test() {
    for (auto& entry : tables_) {
        if (!entry.second.is_sink())
            continue;
        for (auto& kv : entry.second.sink().groups)
            if (kv.second.bindings.size() >= 2) {
                std::swap(kv.second.bindings[0], kv.second.bindings[1]);
                return true;
            }
    }
    return false;
}

bool Server::orphan_group_for_test() {
    for (auto& entry : tables_) {
        if (!entry.second.is_sink())
            continue;
        for (auto& kv : entry.second.sink().groups) {
            const UpdaterGroup& g = kv.second;
            KeyRange range = entry.second.sink()
                                 .join.source(g.source_index)
                                 .containing_range(g.bound.view());
            table_for(range.lo).updaters().erase_overlapping(
                range.lo, range.hi, [](UpdaterGroup* const&) {});
            return true;
        }
    }
    return false;
}

bool Server::plant_stale_group_mark_for_test() {
    for (auto& entry : tables_) {
        Table& t = entry.second;
        if (!t.is_sink())
            continue;
        bool planted = false;
        t.store().for_each_group([&](Store::Subtable& sub) {
            if (planted || !sub.full || t.covers_group(sub))
                return;
            sub.materialized = true;
            planted = true;
        });
        if (planted)
            return true;
    }
    return false;
}

MemoryStats Server::memory_stats() const {
    MemoryStats total = root_.store().memory_stats();
    for (const auto& entry : tables_) {
        const MemoryStats& s = entry.second.store().memory_stats();
        total.entry_count += s.entry_count;
        total.key_bytes += s.key_bytes;
        total.value_bytes += s.value_bytes;
        total.structure_bytes += s.structure_bytes + kTableDirOverhead
            + 2 * entry.first.size();
        total.subtable_count += s.subtable_count;
        total.shared_value_count += s.shared_value_count;
    }
    return total;
}

}  // namespace pequod
