// §11 checked-build validators. Three layers of coverage:
//
//  1. Deliberate corruption: break exactly one invariant through the
//     *_for_test hooks and assert the matching verify() walker reports
//     it. This is the proof that a treap rotation bug like PR 6's
//     ghost-node defect cannot survive one validation run.
//  2. Randomized brute force: drive IntervalMap::erase_overlapping and
//     RangeSet::subtract with the same materialize/invalidate schedule
//     a server would, against naive oracles, re-verifying structure
//     after every operation (extends the PR 6 regression tests in
//     unit_tests.cpp with always-on structural checking).
//  3. Engine reconciliation: Store/Server verify() across a join
//     lifecycle — materialization, eager maintenance, value sharing,
//     invalidation cascades — so the incremental stats and refcounts
//     are re-derived from scratch at every phase.
//
// Everything here runs in any build; -DPEQUOD_VALIDATE=ON additionally
// re-runs the walkers inside every mutating operation (and arms the
// NodePool double-free guard), which sanitizer CI switches on.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/base.hh"
#include "common/interval_map.hh"
#include "common/pool.hh"
#include "common/rangeset.hh"
#include "common/rng.hh"
#include "common/str.hh"
#include "common/validate.hh"
#include "core/server.hh"
#include "store/store.hh"

namespace pequod {
namespace {

// ---- deliberate corruption -------------------------------------------------

void populate_map(IntervalMap<int>& map) {
    Rng rng(3);
    for (int i = 0; i < 32; ++i)
        map.insert("k|" + pad_number(rng.below(90), 3),
                   "k|" + pad_number(rng.below(90) + 90, 3), i);
}

TEST(Corruption, IntervalMapHeapOrderBreakIsCaught) {
    IntervalMap<int> map;
    populate_map(map);
    map.verify();  // clean before corruption
    ASSERT_TRUE(map.corrupt_heap_order_for_test());
    EXPECT_THROW(map.verify(), InvariantError);
}

TEST(Corruption, IntervalMapBstOrderBreakIsCaught) {
    IntervalMap<int> map;
    populate_map(map);
    map.verify();
    ASSERT_TRUE(map.corrupt_bst_order_for_test());
    EXPECT_THROW(map.verify(), InvariantError);
}

TEST(Corruption, IntervalMapStaleMaxHiIsCaught) {
    IntervalMap<int> map;
    populate_map(map);
    map.verify();
    ASSERT_TRUE(map.corrupt_max_hi_for_test());
    EXPECT_THROW(map.verify(), InvariantError);
}

TEST(Corruption, IntervalMapGhostNodeCountIsCaught) {
    // The PR 6 failure mode: remove_node left a node reachable that the
    // size bookkeeping thought was gone. Model the mismatch directly.
    IntervalMap<int> map;
    populate_map(map);
    map.verify();
    map.corrupt_size_for_test();
    EXPECT_THROW(map.verify(), InvariantError);
}

// Three followers of one poster: the poster's updater group holds
// three bindings.
void populate_groups(Server& server) {
    server.add_join(
        "t|<u>|<ts:10>|<p> = check s|<u>|<p> copy p|<p>|<ts:10>");
    server.put("p|bob|0000000001", "one");
    for (const char* u : {"ann", "cat", "dan"}) {
        server.put(std::string("s|") + u + "|bob", "1");
        std::string lo = std::string("t|") + u + "|";
        server.scan(lo, prefix_successor(lo),
                    [](const std::string&, const ValuePtr&) {});
    }
}

TEST(Corruption, UpdaterBindingOrderBreakIsCaught) {
    Server server;
    populate_groups(server);
    server.verify();  // clean before corruption
    ASSERT_TRUE(server.unsort_bindings_for_test());
    EXPECT_THROW(server.verify(), InvariantError);
}

TEST(Corruption, StaleUpdaterGroupIsCaught) {
    Server server;
    populate_groups(server);
    server.verify();
    ASSERT_TRUE(server.orphan_group_for_test());
    EXPECT_THROW(server.verify(), InvariantError);
}

TEST(Corruption, StaleGroupMarkIsCaught) {
    // A partial invalidation clears ann's mark and leaves her subtable
    // behind, uncovered; planting the mark back must not verify.
    Server server;
    populate_groups(server);
    server.invalidate_range("t|ann|0000000001", "t|ann|0000000002");
    server.verify();
    ASSERT_TRUE(server.plant_stale_group_mark_for_test());
    EXPECT_THROW(server.verify(), InvariantError);
}

TEST(Corruption, RangeSetInvertedRangeIsCaught) {
    RangeSet rs;
    rs.add("b", "d");
    rs.add("f", "h");
    rs.verify();
    ASSERT_TRUE(rs.corrupt_for_test());
    EXPECT_THROW(rs.verify(), InvariantError);
}

TEST(Corruption, NodePoolDoubleFreeIsCaught) {
    NodePool pool;
    void* a = pool.allocate(48);
    void* b = pool.allocate(48);
    pool.deallocate(a, 48);
    pool.verify();
    if (kValidateBuild) {
        // The checked build rejects the double free as it happens.
        EXPECT_THROW(pool.deallocate(a, 48), InvariantError);
        pool.verify();  // and the rejected free left the lists intact
        pool.deallocate(b, 48);
        pool.verify();
    } else {
        // Without the freed-block set the second free self-links the
        // free list; the walker still detects the cycle after the fact.
        pool.deallocate(a, 48);
        EXPECT_THROW(pool.verify(), InvariantError);
        (void)b;
    }
}

TEST(Corruption, NodePoolRecyclesWithoutFalsePositives) {
    NodePool pool;
    // Free-list churn across several size classes must never trip the
    // double-free guard: a block handed back out is freeable again.
    std::vector<std::pair<void*, size_t>> live;
    Rng rng(17);
    for (int step = 0; step < 2000; ++step) {
        if (live.empty() || rng.below(2)) {
            size_t n = 16 + rng.below(6) * 48;
            live.emplace_back(pool.allocate(n), n);
        } else {
            size_t at = rng.below(live.size());
            pool.deallocate(live[at].first, live[at].second);
            live[at] = live.back();
            live.pop_back();
        }
    }
    pool.verify();
    for (auto& pn : live)
        pool.deallocate(pn.first, pn.second);
    pool.verify();
}

// ---- randomized brute force ------------------------------------------------

TEST(BruteForce, IntervalMapVerifiesCleanUnderRandomChurn) {
    // Insert/erase churn with the structural walker after every single
    // operation — the harness that would have caught the PR 6 treap
    // remove_node bug on its first random schedule.
    IntervalMap<int> map;
    std::map<int, std::pair<std::string, std::string>> model;
    Rng rng(29);
    int next_id = 0;
    for (int step = 0; step < 600; ++step) {
        if (model.empty() || rng.below(3) != 0) {
            std::string lo = "k|" + pad_number(rng.below(120), 3);
            std::string hi = rng.below(8) == 0
                ? std::string()
                : "k|" + pad_number(rng.below(120) + 120, 3);
            map.insert(lo, hi, next_id);
            model.emplace(next_id, std::make_pair(lo, hi));
            ++next_id;
        } else {
            std::string elo = "k|" + pad_number(rng.below(240), 3);
            std::string ehi = rng.below(8) == 0
                ? std::string()
                : "k|" + pad_number(rng.below(240), 3);
            std::vector<int> got;
            map.erase_overlapping(elo, ehi,
                                  [&](const int& v) { got.push_back(v); });
            std::vector<int> want;
            for (const auto& [id, r] : model) {
                bool below_hi = ehi.empty() || r.first < ehi;
                bool above_lo = r.second.empty() || r.second > elo;
                if (below_hi && above_lo)
                    want.push_back(id);
            }
            std::sort(got.begin(), got.end());
            ASSERT_EQ(got, want) << "step " << step;
            for (int id : want)
                model.erase(id);
        }
        ASSERT_NO_THROW(map.verify()) << "step " << step;
        ASSERT_EQ(map.size(), model.size()) << "step " << step;
    }
}

TEST(BruteForce, MaterializeInvalidateScheduleMatchesOracle) {
    // Pit IntervalMap::erase_overlapping and RangeSet::subtract — the
    // two halves of the §10 invalidation path — against naive oracles
    // under one shared random materialize/invalidate schedule, exactly
    // the pairing Server::invalidate_table performs. All bounds are
    // drawn from a closed key universe so oracle coverage is exact.
    constexpr int kUnits = 80;
    auto key = [](int i) { return "u|" + pad_number(i, 3); };
    RangeSet valid;
    IntervalMap<int> updaters;
    std::vector<bool> covered(kUnits + 1, false);  // [kUnits] = inf band
    std::map<int, std::pair<std::string, std::string>> registered;
    Rng rng(101);
    int next_id = 0;
    for (int step = 0; step < 500; ++step) {
        int a = static_cast<int>(rng.below(kUnits));
        int b = static_cast<int>(rng.below(kUnits + 1));
        bool infinite = b == kUnits;
        if (!infinite && b <= a) {
            int t = a;
            a = b;
            b = t;
        }
        if (a == b && !infinite)
            b = a + 1;
        std::string lo = key(a);
        std::string hi = infinite ? std::string() : key(b);
        if (rng.below(2)) {
            // Materialize: the range becomes valid and registers an
            // updater interval, as freshen_table does.
            valid.add(lo, hi);
            updaters.insert(lo, hi, next_id);
            registered.emplace(next_id, std::make_pair(lo, hi));
            ++next_id;
            for (int i = a; i < (infinite ? kUnits + 1 : b); ++i)
                covered[static_cast<size_t>(i)] = true;
        } else {
            // Invalidate: shrink validity and tear down every updater
            // interval overlapping the suspect range.
            valid.subtract(lo, hi);
            std::vector<int> torn;
            updaters.erase_overlapping(
                lo, hi, [&](const int& v) { torn.push_back(v); });
            std::vector<int> want;
            for (const auto& [id, r] : registered) {
                bool below_hi = hi.empty() || r.first < hi;
                bool above_lo = r.second.empty() || r.second > lo;
                if (below_hi && above_lo)
                    want.push_back(id);
            }
            std::sort(torn.begin(), torn.end());
            ASSERT_EQ(torn, want) << "step " << step;
            for (int id : want)
                registered.erase(id);
            for (int i = a; i < (infinite ? kUnits + 1 : b); ++i)
                covered[static_cast<size_t>(i)] = false;
        }
        ASSERT_NO_THROW(valid.verify()) << "step " << step;
        ASSERT_NO_THROW(updaters.verify()) << "step " << step;
        ASSERT_EQ(updaters.size(), registered.size());
        for (int i = 0; i < kUnits; ++i)
            ASSERT_EQ(valid.covers(key(i), key(i + 1)),
                      covered[static_cast<size_t>(i)])
                << "step " << step << " unit " << i;
        ASSERT_EQ(valid.covers(key(kUnits), ""),
                  covered[kUnits])
            << "step " << step;
    }
}

TEST(BruteForce, GroupMarksMatchRangeSetOracle) {
    // One random schedule of follows, posts, scans (per-user, partial,
    // spanning, whole-sink and chained) and invalidations (sink and base
    // ranges), run on a server with whole-group marks and on a
    // RangeSet-only oracle with subtables off. Every scan must agree and
    // the marked server must verify after every step.
    ServerConfig flat;
    flat.enable_subtables = false;
    Server marked;
    Server oracle(flat);
    for (Server* s : {&marked, &oracle}) {
        s->add_join("t|<u>|<ts:10>|<p> = check s|<u>|<p> copy p|<p>|<ts:10>");
        s->add_join("c|<u>|<ts:10>|<p> = copy t|<u>|<ts:10>|<p>");
    }
    constexpr int kUsers = 12;
    auto user = [](uint64_t u) { return pad_number(u, 3); };
    auto rows = [](Server& s, const std::string& lo, const std::string& hi) {
        std::vector<std::pair<std::string, std::string>> out;
        s.scan(lo, hi, [&](const std::string& k, const ValuePtr& v) {
            out.emplace_back(k, *v);
        });
        return out;
    };
    Rng rng(29);
    uint64_t ts = 0;
    size_t hot_checks = 0;
    for (int step = 0; step < 1500; ++step) {
        std::string a = user(rng.below(kUsers));
        std::string b = user(rng.below(kUsers));
        std::string lo, hi;
        switch (rng.below(10)) {
        case 0:
            for (Server* s : {&marked, &oracle})
                s->put("s|" + a + "|" + b, "1");
            continue;
        case 1:
        case 2:
            ++ts;
            for (Server* s : {&marked, &oracle})
                s->put("p|" + a + "|" + pad_number(ts, 10),
                       "v" + std::to_string(ts));
            continue;
        case 3: {
            // Invalidate a sink or base range, sometimes the head of a
            // group; then check the group's still-valid tail, which must
            // not mark the group.
            const char* table = rng.below(3) == 0 ? "p|" : "t|";
            std::string group = table + a + "|";
            bool head = rng.below(2) != 0;
            std::string end = head ? group + pad_number(rng.below(ts + 1), 10)
                                   : prefix_successor(group);
            for (Server* s : {&marked, &oracle})
                s->invalidate_range(group, end);
            ASSERT_NO_THROW(marked.verify()) << "step " << step;
            if (!head || group[0] != 't')
                continue;
            lo = end;
            hi = prefix_successor(group);
            break;
        }
        case 4:
            lo = "t|" + std::min(a, b) + "|";
            hi = "t|" + std::max(a, b) + "}";
            break;
        case 5:
            lo = rng.below(4) ? "c|" + a + "|" : "t|";
            hi = lo == "t|" ? "t}" : prefix_successor(lo);
            break;
        case 6:
            lo = "t|" + a;  // shorter than the group prefix
            hi = "t|" + a + "}";
            break;
        default:
            // A whole timeline, its tail, or one timestamp's slice (which
            // materializes less than the group's block).
            lo = "t|" + a + "|";
            switch (rng.below(3)) {
            case 0:
                hi = prefix_successor(lo);
                break;
            case 1:
                hi = prefix_successor(lo);
                lo += pad_number(rng.below(ts + 1), 10);
                break;
            default:
                lo += pad_number(rng.below(ts + 1), 10) + "|";
                hi = prefix_successor(lo);
                break;
            }
            break;
        }
        hot_checks += marked.hot_check_for_test(lo, hi);
        ASSERT_EQ(rows(marked, lo, hi), rows(oracle, lo, hi))
            << "step " << step << " [" << lo << ", " << hi << ")";
        ASSERT_NO_THROW(marked.verify()) << "step " << step;
    }
    // The schedule really exercised the hot path.
    EXPECT_GT(hot_checks, 100u);
}

// ---- engine reconciliation -------------------------------------------------

TEST(EngineValidate, StoreStatsReconcileUnderChurn) {
    Store store;
    store.set_subtable_components("t|", 1);
    Rng rng(5);
    for (int step = 0; step < 300; ++step) {
        uint64_t user = rng.below(12);
        uint64_t post = rng.below(40);
        std::string key =
            "t|" + pad_number(user, 4) + "|" + pad_number(post, 6);
        switch (rng.below(4)) {
        case 0:
        case 1:
            store.put(key, "v" + pad_number(rng.below(100), 4));
            break;
        case 2: {
            // Share a value between two entries (§4.3).
            bool inserted = false;
            Entry* src = store.put(key, "shared", nullptr, &inserted);
            std::string sink = "s|" + pad_number(user, 4);
            store.put_shared(sink, src->share_value());
            break;
        }
        default:
            store.erase_range("t|" + pad_number(user, 4) + "|",
                              "t|" + pad_number(user, 4) + "}");
            break;
        }
        ASSERT_NO_THROW(store.verify()) << "step " << step;
    }
    store.erase_range("", "");
    store.verify();
    EXPECT_EQ(store.size(), 0u);
}

TEST(EngineValidate, ServerVerifiesThroughJoinLifecycle) {
    // A chained, value-sharing join under random puts, scans, and §10
    // invalidations; the cross-table walker re-derives updater and
    // refcount consistency at every phase. (In -DPEQUOD_VALIDATE builds
    // invalidate_range re-runs this internally as well.)
    ServerConfig config;
    config.enable_value_sharing = true;
    Server server(config);
    server.add_join("t|<u>|<p:6> = check s|<u>|<f> copy p|<f>|<p:6>");
    server.add_join("d|<u>|<p:6> = copy t|<u>|<p:6>");
    Rng rng(77);
    auto user = [&](uint64_t u) { return pad_number(u, 3); };
    for (uint64_t u = 0; u < 6; ++u)
        for (uint64_t f = 0; f < 6; ++f)
            if (u != f && rng.below(2))
                server.put("s|" + user(u) + "|" + user(f), "1");
    server.verify();
    for (int step = 0; step < 200; ++step) {
        uint64_t u = rng.below(6);
        switch (rng.below(5)) {
        case 0:
        case 1:
            server.put("p|" + user(u) + "|" + pad_number(rng.below(200), 6),
                       "post" + pad_number(rng.below(50), 3));
            break;
        case 2: {
            size_t seen = 0;
            server.scan("t|" + user(u) + "|", "t|" + user(u) + "}",
                        [&seen](const std::string&, const ValuePtr&) {
                            ++seen;
                        });
            break;
        }
        case 3: {
            size_t seen = 0;
            server.scan("d|" + user(u) + "|", "d|" + user(u) + "}",
                        [&seen](const std::string&, const ValuePtr&) {
                            ++seen;
                        });
            break;
        }
        default:
            server.invalidate_range("p|" + user(u) + "|",
                                    "p|" + user(u) + "}");
            break;
        }
        if (step % 10 == 0) {
            ASSERT_NO_THROW(server.verify()) << "step " << step;
        }
    }
    server.verify();
    const MemoryStats stats = server.memory_stats();
    EXPECT_GT(stats.entry_count, 0u);
}

TEST(EngineValidate, SharedValueStatsSurviveOwnerErase) {
    // Erasing the owner of a shared buffer leaves the sharer holding the
    // last reference; the stats reconciliation must still hold (the §4.3
    // "orphaned buffer" corner documented in MemoryStats).
    Store store;
    bool inserted = false;
    Entry* src = store.put("b|one", "payload", nullptr, &inserted);
    store.put_shared("c|one", src->share_value());
    EXPECT_EQ(store.memory_stats().shared_value_count, 1u);
    store.verify();
    store.erase_range("b|one", std::string("b|one\0", 6));
    EXPECT_EQ(store.size(), 1u);
    store.verify();  // the sharer still counts; no stale accounting
    EXPECT_EQ(store.get_ptr("c|one")->value(), "payload");
    // Overwriting the sharer detaches it, dropping the buffer's last
    // reference; shared_value_count must return to zero.
    store.put("c|one", "fresh");
    EXPECT_EQ(store.memory_stats().shared_value_count, 0u);
    store.verify();
}

}  // namespace
}  // namespace pequod
