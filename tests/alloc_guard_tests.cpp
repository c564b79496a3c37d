// Allocation-count guards for the hot paths (DESIGN.md §8). This binary
// replaces global operator new/delete with counting wrappers and asserts
// that the paths the Str refactor promises are allocation-free really
// are: Pattern::match binds slots as slices (zero allocations per match),
// and a hinted eager update on a warmed fan-out sink — the full
// put -> stab -> apply_update -> expand -> write chain — allocates
// nothing when it overwrites existing sink entries, and a hot timeline
// check of a materialized group allocates nothing at all.
//
// Lives in its own test binary because replacing operator new is a
// whole-program decision that must not leak into the other test suites.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "common/base.hh"
#include "core/server.hh"
#include "join/join.hh"

namespace {

std::atomic<uint64_t> g_alloc_count{0};

}  // namespace

// Every replaced operator allocates with malloc and frees with free, so
// gcc's heuristic pairing check does not apply.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(size_t n) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}
void* operator new[](size_t n) {
    return ::operator new(n);
}
void operator delete(void* p) noexcept {
    std::free(p);
}
void operator delete(void* p, size_t) noexcept {
    std::free(p);
}
void operator delete[](void* p) noexcept {
    std::free(p);
}
void operator delete[](void* p, size_t) noexcept {
    std::free(p);
}

#pragma GCC diagnostic pop

namespace pequod {
namespace {

// Allocations performed by `f()`; runs f once unmeasured first so lazy
// one-time setup (scratch growth, freshly touched hints) is warm.
template <typename F>
uint64_t allocations_after_warmup(F f) {
    f();
    uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    f();
    return g_alloc_count.load(std::memory_order_relaxed) - before;
}

TEST(AllocGuard, CounterSeesAllocations) {
    uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    std::string* s = new std::string(100, 'x');
    uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
    delete s;
    EXPECT_GE(after - before, 2u);  // the object and its heap buffer
}

TEST(AllocGuard, PatternMatchIsAllocationFree) {
    SlotTable slots;
    Pattern p = Pattern::parse("t|<user>|<time:10>|<poster>", slots);
    std::string key = "t|ann|0000000100|bob";
    uint64_t allocs = allocations_after_warmup([&] {
        for (int i = 0; i < 100; ++i) {
            SlotSet ss;
            bool ok = p.match(key, ss);
            ASSERT_TRUE(ok);
        }
    });
    EXPECT_EQ(allocs, 0u);
}

TEST(AllocGuard, PatternMatchUnboundedSlotIsAllocationFree) {
    SlotTable slots;
    Pattern p = Pattern::parse("s|<u>|<p>", slots);
    std::string key = "s|ann|bob";
    uint64_t allocs = allocations_after_warmup([&] {
        for (int i = 0; i < 100; ++i) {
            SlotSet ss;
            bool ok = p.match(key, ss);
            ASSERT_TRUE(ok);
        }
    });
    EXPECT_EQ(allocs, 0u);
}

TEST(AllocGuard, ExpandIntoWarmKeyBufIsAllocationFree) {
    SlotTable slots;
    Pattern p = Pattern::parse("t|<user>|<time:10>|<poster>", slots);
    SlotSet ss;
    std::string key = "t|ann|0000000100|bob";
    ASSERT_TRUE(p.match(key, ss));
    KeyBuf buf;
    uint64_t allocs = allocations_after_warmup([&] {
        for (int i = 0; i < 100; ++i)
            p.expand(ss, buf);
    });
    EXPECT_EQ(allocs, 0u);
}

TEST(AllocGuard, HintedEagerUpdateIsAllocationFree) {
    // A post overwriting an existing post key on a warmed fan-out sink:
    // the eager chain re-matches, re-expands, and overwrites each
    // materialized timeline entry through its output hint. None of that
    // may allocate — only a genuinely new entry (new node + key bytes)
    // is allowed to, and this workload creates none.
    const int followers = 8;
    Server server;
    server.add_join(
        "t|<u>|<ts:10>|<p> = check s|<u>|<p> copy p|<p>|<ts:10>");
    for (int f = 0; f < followers; ++f)
        server.put("s|" + pad_number(static_cast<uint64_t>(f), 6) + "|star",
                   "1");
    std::string post_key = "p|star|" + pad_number(1, 10);
    server.put(post_key, "fan-out tweet");
    for (int f = 0; f < followers; ++f) {
        std::string lo = "t|" + pad_number(static_cast<uint64_t>(f), 6) + "|";
        server.scan(lo, prefix_successor(lo),
                    [](const std::string&, const ValuePtr&) {});
    }
    uint64_t eager_before = server.eager_update_count();
    uint64_t allocs = allocations_after_warmup([&] {
        for (int i = 0; i < 50; ++i)
            server.put(post_key, "fan-out tweet");
    });
    EXPECT_EQ(allocs, 0u);
    // The chain really ran: one eager sink write per follower per put
    // (50 warmup + 50 measured).
    EXPECT_EQ(server.eager_update_count(),
              eager_before + 100u * followers);
}

TEST(AllocGuard, ValueSharingEagerOverwriteIsAllocationFree) {
    // With §4.3 value sharing on, a warmed eager overwrite is not just
    // copy-free but byte-copy-free: the source overwrite writes through
    // its shared buffer in place, and each sink write re-adopts the same
    // buffer (a refcount bump), never duplicating the value.
    const int followers = 8;
    ServerConfig config;
    config.enable_value_sharing = true;
    Server server(config);
    server.add_join(
        "t|<u>|<ts:10>|<p> = check s|<u>|<p> copy p|<p>|<ts:10>");
    for (int f = 0; f < followers; ++f)
        server.put("s|" + pad_number(static_cast<uint64_t>(f), 6) + "|star",
                   "1");
    std::string post_key = "p|star|" + pad_number(1, 10);
    std::string body(100, 'x');  // far past SSO: a copy would allocate
    server.put(post_key, body);
    for (int f = 0; f < followers; ++f) {
        std::string lo = "t|" + pad_number(static_cast<uint64_t>(f), 6) + "|";
        server.scan(lo, prefix_successor(lo),
                    [](const std::string&, const ValuePtr&) {});
    }
    uint64_t eager_before = server.eager_update_count();
    uint64_t allocs = allocations_after_warmup([&] {
        for (int i = 0; i < 50; ++i)
            server.put(post_key, body);
    });
    EXPECT_EQ(allocs, 0u);
    EXPECT_EQ(server.eager_update_count(),
              eager_before + 100u * followers);
}

TEST(AllocGuard, HotCheckAllocatesNothing) {
    // A timeline check inside a materialized (marked) group is one
    // subtable probe and one tree walk: no valid-set descent, no slot
    // derivation, no allocation.
    Server server;
    server.add_join(
        "t|<u>|<ts:10>|<p> = check s|<u>|<p> copy p|<p>|<ts:10>");
    server.put("s|000042|star", "1");
    for (uint64_t ts = 1; ts <= 4; ++ts)
        server.put("p|star|" + pad_number(ts, 10), "tweet");
    std::string lo = "t|000042|";
    std::string hi = prefix_successor(lo);
    std::string since = lo + pad_number(2, 10);
    size_t rows = 0;
    auto count = [&rows](const std::string&, const ValuePtr&) { ++rows; };
    server.scan(lo, hi, count);
    ASSERT_TRUE(server.hot_check_for_test(since, hi));
    uint64_t mats = server.materialization_count();
    rows = 0;
    uint64_t allocs = allocations_after_warmup([&] {
        for (int i = 0; i < 50; ++i) {
            server.scan(lo, hi, count);
            server.scan(since, hi, count);
        }
    });
    EXPECT_EQ(allocs, 0u);
    EXPECT_EQ(rows, 2u * 50u * (4u + 3u));
    EXPECT_EQ(server.materialization_count(), mats);
}

TEST(AllocGuard, HintedAppendAllocatesOnlyNodeAndKey) {
    // A genuinely new entry must allocate exactly its tree node and its
    // owned key bytes — the refactor's floor — and nothing else. Value
    // bytes fit std::string's inline buffer here.
    Store store;
    store.set_subtable_components("t|", 1);
    Store::Hint hint;
    store.put("t|user42|" + pad_number(0, 10), "v", &hint);
    uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (uint64_t i = 1; i <= 10; ++i)
        store.put("t|user42|" + pad_number(i, 10), "v", &hint);
    uint64_t allocs =
        g_alloc_count.load(std::memory_order_relaxed) - before;
    // Per put: key concatenation in the test (2: string buffer +
    // pad_number result is SSO, the concat result is heap) is the
    // caller's; the store itself may take at most node + key bytes. The
    // node comes from the store's pool (one slab amortized across many
    // nodes), so the budget is: 10 concats + 10 key-byte copies + at
    // most 1 slab.
    EXPECT_LE(allocs, 10u + 10u + 1u);
}

}  // namespace
}  // namespace pequod
