#include "store/store.hh"

#include <stdexcept>
#include <utility>

#include "common/validate.hh"

namespace pequod {

void Store::set_subtable_components(const std::string& prefix,
                                    int components) {
    if (prefix.empty() || components < 1)
        throw std::invalid_argument("bad subtable spec");
    if (stats_.entry_count != 0)
        throw std::logic_error(
            "set_subtable_components requires an empty store");
    for (auto& spec : specs_) {
        if (spec.first == prefix) {
            spec.second = components;
            return;
        }
        if (prefixes_overlap(spec.first, prefix))
            throw std::logic_error("nested subtable prefixes: " + spec.first
                                   + " vs " + prefix);
    }
    specs_.emplace_back(prefix, components);
}

size_t Store::group_length(Str key, bool* full) const {
    for (const auto& spec : specs_) {
        if (!key.starts_with(spec.first))
            continue;
        size_t pos = spec.first.size();
        for (int c = 0; c < spec.second; ++c) {
            size_t bar = key.find('|', pos);
            if (bar == Str::npos) {
                if (full)
                    *full = false;
                return key.size();  // short key: the whole key is its group
            }
            pos = bar + 1;
        }
        if (full)
            *full = true;
        return pos;
    }
    return 0;
}

Store::Subtable* Store::find_or_make_subtable(Str group, bool full) {
    auto hit = table_index_.find(group);
    if (hit != table_index_.end())
        return hit->second;
    // First touch of a group: creating the subtable owns the prefix
    // bytes; every later write hits the transparent index above instead.
    // First touch of a group allocates its directory entry; every
    // later put hits the index probe. pqcheck: allow(no-alloc)
    auto ins = tables_.emplace(group.str(), Subtable(pool_.get()));  // pqcheck: allow(hot-string)
    Subtable* sub = &ins.first->second;
    if (ins.second) {
        sub->prefix = &ins.first->first;
        sub->full = full;
        ++stats_.subtable_count;
        stats_.structure_bytes += kSubtableOverhead + 2 * group.size();
    }
    // pqcheck: allow(no-alloc)
    table_index_.emplace(group.str(), sub);  // pqcheck: allow(hot-string)
    return sub;
}

const Store::Subtable* Store::find_subtable(Str group) const {
    auto hit = table_index_.find(group);
    return hit != table_index_.end() ? hit->second : nullptr;
}

// A '|'-terminated group's block is [group, end) with end the group with
// its final '|' bumped to '}'; the strings in (group, end] are exactly
// those starting with `group`, plus `end` itself.
static bool is_block_end(Str group, Str hi) {
    size_t n = group.size();
    return hi.size() == n && hi.back() == '}'
        && hi.prefix(n - 1) == group.prefix(n - 1);
}

Store::Subtable* Store::confined_group(Str lo, Str hi) {
    return const_cast<Subtable*>(std::as_const(*this).confined_group(lo, hi));
}

const Store::Subtable* Store::confined_group(Str lo, Str hi) const {
    if (!enable_subtables_ || hi.empty())
        return nullptr;
    bool full = false;
    size_t glen = group_length(lo, &full);
    if (glen == 0 || !full)
        return nullptr;
    Str group = lo.prefix(glen);
    if (!hi.starts_with(group) && !is_block_end(group, hi))
        return nullptr;
    return find_subtable(group);
}

bool Store::is_block(const Subtable& sub, Str lo, Str hi) {
    return sub.full && lo == Str(*sub.prefix) && is_block_end(lo, hi);
}

void Store::block_end(const Subtable& sub, KeyBuf& out) {
    Str group = *sub.prefix;
    out.clear();
    out.append(group.prefix(group.size() - 1));
    out.push_back('}');
}

// Settle `e`'s value to either owned bytes (`sv` null) or the shared
// buffer `sv` (one reference consumed), adjusting the accounting deltas:
// a sharer is charged a reference's structure bytes instead of payload.
void Store::apply_value(Entry& e, Str value, SharedValue* sv) {
    stats_.value_bytes -= e.accounted_value_bytes();
    if (e.shares_value()) {
        stats_.structure_bytes -= kSharedRefOverhead;
        --stats_.shared_value_count;
    }
    if (sv)
        e.adopt_shared(sv);
    else
        e.set_value(value);
    stats_.value_bytes += e.accounted_value_bytes();
    if (e.shares_value()) {
        stats_.structure_bytes += kSharedRefOverhead;
        ++stats_.shared_value_count;
    }
}

Entry* Store::overwrite(Tree::iterator it, Str value, SharedValue* sv) {
    apply_value(it->second, value, sv);
    return &it->second;
}

Entry* Store::insert_into(Tree& tree, bool use_hint, Tree::iterator hint_pos,
                          Str key, Str value, SharedValue* sv,
                          Tree::iterator* out_pos, bool* inserted) {
    size_t before = tree.size();
    Tree::iterator it;
    if (use_hint) {
        // A genuinely new entry owns its key bytes and a pool node;
        // the zero-allocation contract is the overwrite path (§8),
        // which constructs nothing. pqcheck: allow(no-alloc)
        it = tree.emplace_hint(
            hint_pos, std::piecewise_construct,
            std::forward_as_tuple(key.data(), key.size()),
            std::forward_as_tuple());
    } else {
        // Probe with the Str first: an overwrite then constructs nothing.
        it = tree.lower_bound(key);
        if (it == tree.end() || Str(it->first) != key)
            // pqcheck: allow(no-alloc) -- new entry, as above
            it = tree.emplace_hint(
                it, std::piecewise_construct,
                std::forward_as_tuple(key.data(), key.size()),
                std::forward_as_tuple());
    }
    if (inserted)
        *inserted = tree.size() != before;
    if (tree.size() != before) {
        ++stats_.entry_count;
        stats_.key_bytes += key.size();
        stats_.structure_bytes += kNodeOverhead;
    }
    apply_value(it->second, value, sv);
    *out_pos = it;
    return &it->second;
}

Entry* Store::put(Str key, Str value, Hint* hint, bool* inserted) {
    return put_impl(key, value, nullptr, hint, inserted);
}

Entry* Store::put_shared(Str key, SharedValue* sv, Hint* hint,
                         bool* inserted) {
    return put_impl(key, Str(), sv, hint, inserted);
}

Entry* Store::put_impl(Str key, Str value, SharedValue* sv, Hint* hint,
                       bool* inserted) {
    Tree::iterator pos;
    // Hint fast path: reuse the previous put's tree when the key provably
    // belongs there, skipping routing and the hash probe. The hinted
    // position only biases emplace_hint — std::map inserts correctly
    // regardless.
    if (hint && hint->tree && hint->epoch == epoch_) {
        const Subtable* sub = hint->table;
        // A full group owns every key sharing its prefix, but a one-key
        // group holds exactly its key — a longer key starting with it
        // belongs to some other group. A main-tree hint holds whenever no
        // subtable spec claims the key.
        bool routable = sub
            ? key.starts_with(*sub->prefix)
                  && (sub->full || key.size() == sub->prefix->size())
            : !enable_subtables_ || group_length(key) == 0;
        if (routable) {
            Tree::iterator guess = hint->pos;
            if (guess != hint->tree->end()) {
                if (Str(guess->first) == key) {
                    // Overwriting the hinted entry: no descent, no node,
                    // no key bytes — the zero-allocation maintenance path.
                    if (inserted)
                        *inserted = false;
                    return overwrite(guess, value, sv);
                }
                ++guess;  // appends land just after the previous entry
            }
            Entry* e = insert_into(*hint->tree, true, guess, key, value, sv,
                                   &pos, inserted);
            hint->pos = pos;
            return e;
        }
    }
    Tree* tree = &tree_;
    Subtable* sub = nullptr;
    if (enable_subtables_) {
        bool full = false;
        size_t glen = group_length(key, &full);
        if (glen) {
            sub = find_or_make_subtable(key.prefix(glen), full);
            tree = &sub->tree;
        }
    }
    Entry* e = insert_into(*tree, false, Tree::iterator(), key, value, sv,
                           &pos, inserted);
    if (hint) {
        hint->tree = tree;
        hint->table = sub;
        hint->pos = pos;
        hint->epoch = epoch_;
    }
    return e;
}

size_t Store::erase_range(Str lo, Str hi) {
    if (!hi.empty() && !(lo < hi))
        return 0;
    // Outstanding hints may reference erased iterators; invalidate them
    // all rather than track which trees were touched.
    ++epoch_;
    size_t removed = 0;
    auto erase_in = [&](Tree& tree) {
        auto it = tree.lower_bound(lo);
        while (it != tree.end() && (hi.empty() || Str(it->first) < hi)) {
            --stats_.entry_count;
            stats_.key_bytes -= it->first.size();
            stats_.value_bytes -= it->second.accounted_value_bytes();
            stats_.structure_bytes -= kNodeOverhead;
            if (it->second.shares_value()) {
                stats_.structure_bytes -= kSharedRefOverhead;
                --stats_.shared_value_count;
            }
            it = tree.erase(it);
            ++removed;
        }
    };
    erase_in(tree_);
    auto dit = tables_.upper_bound(lo);
    if (dit != tables_.begin()) {
        auto prev = std::prev(dit);
        if (lo.starts_with(prev->first))
            dit = prev;
    }
    for (; dit != tables_.end() && (hi.empty() || Str(dit->first) < hi);
         ++dit) {
        dit->second.materialized = false;
        erase_in(dit->second.tree);
    }
    return removed;
}

void Store::verify() const {
    MemoryStats expect;
    auto count_tree = [&expect](const Tree& tree) {
        for (const auto& kv : tree) {
            ++expect.entry_count;
            expect.key_bytes += kv.first.size();
            expect.value_bytes += kv.second.accounted_value_bytes();
            expect.structure_bytes += kNodeOverhead;
            if (kv.second.shares_value()) {
                ++expect.shared_value_count;
                expect.structure_bytes += kSharedRefOverhead;
            }
        }
    };
    count_tree(tree_);
    if (enable_subtables_) {
        for (const auto& kv : tree_)
            if (group_length(kv.first) != 0)
                invariant_fail("Store", "main-tree key belongs to a group: "
                                            + kv.first);
    }
    for (const auto& dir : tables_) {
        const Subtable& sub = dir.second;
        if (sub.prefix != &dir.first)
            invariant_fail("Store", "subtable prefix is not its directory "
                                    "key: " + dir.first);
        bool full = false;
        if (group_length(dir.first, &full) != dir.first.size()
            || full != sub.full)
            invariant_fail("Store", "subtable's group kind disagrees with "
                                    "its prefix: " + dir.first);
        if (sub.materialized && !sub.full)
            invariant_fail("Store", "one-key group carries the whole-group "
                                    "mark: " + dir.first);
        auto hit = table_index_.find(Str(dir.first));
        if (hit == table_index_.end() || hit->second != &sub)
            invariant_fail("Store", "hash index misses or misroutes "
                                    "subtable: " + dir.first);
        for (const auto& kv : sub.tree)
            if (group_length(kv.first) != dir.first.size()
                || !Str(kv.first).starts_with(dir.first))
                invariant_fail("Store", "key routed to the wrong subtable: "
                                            + kv.first);
        count_tree(sub.tree);
        ++expect.subtable_count;
        expect.structure_bytes += kSubtableOverhead + 2 * dir.first.size();
    }
    if (table_index_.size() != tables_.size())
        invariant_fail("Store", "hash index size disagrees with the "
                                "subtable directory");
    if (expect.entry_count != stats_.entry_count)
        invariant_fail("Store", "entry_count stale: counted "
                                    + std::to_string(expect.entry_count)
                                    + " != stats "
                                    + std::to_string(stats_.entry_count));
    if (expect.key_bytes != stats_.key_bytes)
        invariant_fail("Store", "key_bytes accounting stale");
    if (expect.value_bytes != stats_.value_bytes)
        invariant_fail("Store", "value_bytes accounting stale");
    if (expect.structure_bytes != stats_.structure_bytes)
        invariant_fail("Store", "structure_bytes accounting stale");
    if (expect.subtable_count != stats_.subtable_count)
        invariant_fail("Store", "subtable_count accounting stale");
    if (expect.shared_value_count != stats_.shared_value_count)
        invariant_fail("Store",
                       "shared_value_count stale: counted "
                           + std::to_string(expect.shared_value_count)
                           + " sharers != stats "
                           + std::to_string(stats_.shared_value_count));
    pool_->verify();
}

const Entry* Store::get_ptr(Str key) const {
    const Tree* tree = &tree_;
    if (enable_subtables_) {
        size_t glen = group_length(key);
        if (glen) {
            const Subtable* sub = find_subtable(key.prefix(glen));
            if (!sub)
                return nullptr;
            tree = &sub->tree;
        }
    }
    auto it = tree->find(key);
    return it != tree->end() ? &it->second : nullptr;
}

}  // namespace pequod
