// Google-benchmark microbenchmarks for Pequod's building blocks: store
// operations across the tree layers, pattern matching and containing-range
// computation, the updater interval tree, the wire codec, join execution,
// login materialization, eager incremental maintenance, and the hot
// freshness check of an already-materialized timeline.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/interval_map.hh"
#include "common/mpsc_queue.hh"
#include "common/rng.hh"
#include "core/server.hh"
#include "join/join.hh"
#include "net/buffer.hh"
#include "store/store.hh"

namespace pequod {
namespace {

std::string make_key(uint64_t i) {
    return "t|" + pad_number(i % 997, 6) + "|" + pad_number(i, 10);
}

// Keys are pre-generated so the store operation is what the loop times,
// not make_key's string concatenation. Iterations past kPutKeys wrap to
// overwrites, which keeps the measured op meaningful at any duration.
constexpr uint64_t kPutKeys = 1 << 20;

const std::vector<std::string>& put_keys() {
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> v;
        v.reserve(kPutKeys);
        for (uint64_t i = 0; i < kPutKeys; ++i)
            v.push_back(make_key(i));
        return v;
    }();
    return keys;
}

void BM_StorePut(benchmark::State& state) {
    const std::vector<std::string>& keys = put_keys();
    Store store;
    store.set_subtable_components("t|", 1);
    uint64_t i = 0;
    for (auto _ : state)
        store.put(keys[i++ % kPutKeys], "value");
    state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_StorePut);

void BM_StoreGet(benchmark::State& state) {
    const std::vector<std::string>& keys = put_keys();
    Store store;
    store.set_subtable_components("t|", 1);
    for (uint64_t i = 0; i < 100000; ++i)
        store.put(keys[i], "value");
    uint64_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(store.get_ptr(keys[i++ % 100000]));
    state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_StoreGet);

void BM_StoreScan100(benchmark::State& state) {
    Store store;
    store.set_subtable_components("t|", 1);
    for (uint64_t i = 0; i < 100000; ++i)
        store.put(make_key(i), "value");
    uint64_t total = 0;
    for (auto _ : state) {
        size_t n = 0;
        std::string lo = "t|" + pad_number(total % 997, 6);
        store.scan(lo, prefix_successor(lo),
                   [&](const std::string&, const Entry&) { ++n; });
        total += n;
    }
    state.SetItemsProcessed(static_cast<int64_t>(total));
}
BENCHMARK(BM_StoreScan100);

void BM_PatternMatch(benchmark::State& state) {
    SlotTable slots;
    Pattern p = Pattern::parse("t|<user>|<time:10>|<poster>", slots);
    std::string key = "t|ann|0000000100|bob";
    for (auto _ : state) {
        SlotSet ss;
        benchmark::DoNotOptimize(p.match(key, ss));
    }
}
BENCHMARK(BM_PatternMatch);

void BM_ContainingRange(benchmark::State& state) {
    SlotTable slots;
    Pattern out = Pattern::parse("t|<user>|<time:10>|<poster>", slots);
    Pattern src = Pattern::parse("p|<poster>|<time:10>", slots);
    SlotSet ss = out.derive_slot_set("t|ann|0000000100", "t|ann}");
    ss.bind(slots.find("poster"), "bob");
    for (auto _ : state)
        benchmark::DoNotOptimize(src.containing_range(ss));
}
BENCHMARK(BM_ContainingRange);

void BM_IntervalMapStab(benchmark::State& state) {
    IntervalMap<int> map;
    Rng rng(1);
    for (int i = 0; i < 10000; ++i) {
        std::string lo = "p|" + pad_number(rng.below(1000), 6) + "|";
        map.insert(lo, prefix_successor(lo), i);
    }
    uint64_t i = 0;
    for (auto _ : state) {
        std::string key =
            "p|" + pad_number(i++ % 1000, 6) + "|0000000042";
        size_t hits = 0;
        map.stab(key, [&](const auto&) { ++hits; });
        benchmark::DoNotOptimize(hits);
    }
}
BENCHMARK(BM_IntervalMapStab);

void BM_VarintCodec(benchmark::State& state) {
    for (auto _ : state) {
        net::Buffer b;
        for (uint64_t v = 1; v < (1ull << 40); v <<= 4)
            b.write_varint(v);
        uint64_t sum = 0;
        for (uint64_t v = 1; v < (1ull << 40); v <<= 4)
            sum += b.read_varint();
        benchmark::DoNotOptimize(sum);
    }
}
BENCHMARK(BM_VarintCodec);

void BM_TimelineCompute(benchmark::State& state) {
    // From-scratch timeline computation over `range` posts (Fig 3).
    const int posts = static_cast<int>(state.range(0));
    for (auto _ : state) {
        state.PauseTiming();
        Server server;
        server.add_join(
            "t|<u>|<ts:10>|<p> = check s|<u>|<p> copy p|<p>|<ts:10>");
        for (int p = 0; p < 20; ++p)
            server.put("s|ann|" + pad_number(p, 4), "1");
        for (int i = 0; i < posts; ++i)
            server.put("p|" + pad_number(i % 20, 4) + "|"
                           + pad_number(static_cast<uint64_t>(i), 10),
                       "tweet");
        state.ResumeTiming();
        size_t n = 0;
        server.scan("t|ann|", prefix_successor("t|ann|"),
                    [&](const std::string&, const ValuePtr&) { ++n; });
        benchmark::DoNotOptimize(n);
    }
    state.SetItemsProcessed(state.iterations() * posts);
}
BENCHMARK(BM_TimelineCompute)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ExpandKey(benchmark::State& state) {
    // Sink key synthesis into a reused caller-owned KeyBuf — the emit
    // path's key construction, measured alone.
    SlotTable slots;
    Pattern sink = Pattern::parse("t|<user>|<time:10>|<poster>", slots);
    Pattern src = Pattern::parse("p|<poster>|<time:10>", slots);
    SlotSet ss;
    ss.bind(slots.find("user"), "ann");
    std::string key = "p|bob|0000000100";
    if (!src.match(key, ss))
        state.SkipWithError("match failed");
    KeyBuf buf;
    for (auto _ : state) {
        sink.expand(ss, buf);
        benchmark::DoNotOptimize(buf.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ExpandKey);

void BM_ServerWriteHinted(benchmark::State& state) {
    // The full write->stab->apply_update chain fanning one post out to
    // 100 warmed follower timelines, with output hints on (arg 1) or
    // off (arg 0).
    const int followers = 100;
    ServerConfig cfg;
    cfg.enable_output_hints = state.range(0) != 0;
    Server server(cfg);
    server.add_join(
        "t|<u>|<ts:10>|<p> = check s|<u>|<p> copy p|<p>|<ts:10>");
    for (int f = 0; f < followers; ++f)
        server.put("s|" + pad_number(f, 6) + "|star", "1");
    server.put("p|star|" + pad_number(0, 10), "seed");
    for (int f = 0; f < followers; ++f) {
        std::string lo = "t|" + pad_number(f, 6) + "|";
        server.scan(lo, prefix_successor(lo),
                    [](const std::string&, const ValuePtr&) {});
    }
    std::vector<std::string> post_keys;
    for (uint64_t i = 1; i <= 1 << 18; ++i)
        post_keys.push_back("p|star|" + pad_number(i, 10));
    uint64_t now = 0;
    for (auto _ : state)
        server.put(post_keys[now++ % post_keys.size()], "fan-out tweet");
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations())
                            * followers);
}
BENCHMARK(BM_ServerWriteHinted)->Arg(1)->Arg(0);

void BM_EagerUpdate(benchmark::State& state) {
    // One post fanned out to `range` follower timelines (§3.2).
    const int followers = static_cast<int>(state.range(0));
    Server server;
    server.add_join(
        "t|<u>|<ts:10>|<p> = check s|<u>|<p> copy p|<p>|<ts:10>");
    for (int f = 0; f < followers; ++f)
        server.put("s|" + pad_number(f, 6) + "|star", "1");
    server.put("p|star|" + pad_number(0, 10), "seed");
    for (int f = 0; f < followers; ++f) {
        std::string lo = "t|" + pad_number(f, 6) + "|";
        server.scan(lo, prefix_successor(lo),
                    [](const std::string&, const ValuePtr&) {});
    }
    uint64_t now = 1;
    for (auto _ : state)
        server.put("p|star|" + pad_number(now++, 10), "fan-out tweet");
    state.SetItemsProcessed(state.iterations() * followers);
}
BENCHMARK(BM_EagerUpdate)->Arg(10)->Arg(100)->Arg(1000);

constexpr const char* kTimelineJoin =
    "t|<u>|<ts:10>|<p> = check s|<u>|<p> copy p|<p>|<ts:10>";

std::string user_key(const char* table, int user) {
    return std::string(table) + pad_number(static_cast<uint64_t>(user), 6)
        + "|";
}

void BM_LoginMaterialize(benchmark::State& state) {
    // One login: materialize a timeline over `range(0)` posters with 5
    // posts each, while `range(1)` other followers of the same posters
    // are already materialized, so every poster's updater group exists
    // and the login only adds its bindings. Logins run in batches of
    // 128 fresh users over one warmed server; rebuilding it is untimed.
    const int posters = static_cast<int>(state.range(0));
    const int others = static_cast<int>(state.range(1));
    const int batch = 128;
    size_t rows = 0;
    auto count = [&rows](const std::string&, const ValuePtr&) { ++rows; };
    std::unique_ptr<Server> server;
    int next = batch;
    int64_t logins = 0;
    for (auto _ : state) {
        if (next == batch) {
            state.PauseTiming();
            server = std::make_unique<Server>();
            server->add_join(kTimelineJoin);
            for (int u = 0; u < others + batch; ++u)
                for (int p = 0; p < posters; ++p)
                    server->put(user_key("s|", u) + "poster"
                                    + pad_number(static_cast<uint64_t>(p), 4),
                                "1");
            for (int p = 0; p < posters; ++p)
                for (uint64_t i = 1; i <= 5; ++i)
                    server->put("p|poster"
                                    + pad_number(static_cast<uint64_t>(p), 4)
                                    + "|" + pad_number(i * 100 + p, 10),
                                std::string(100, 'x'));
            for (int u = 0; u < others; ++u) {
                std::string lo = user_key("t|", u);
                server->scan(lo, prefix_successor(lo), count);
            }
            next = 0;
            state.ResumeTiming();
        }
        std::string lo = user_key("t|", others + next++);
        server->scan(lo, prefix_successor(lo), count);
        benchmark::DoNotOptimize(rows);
        ++logins;
    }
    state.SetItemsProcessed(logins);
}
BENCHMARK(BM_LoginMaterialize)->Args({17, 10})->Args({17, 1000});

void BM_FanOutPost(benchmark::State& state) {
    // One 100-byte post into `range(0)` materialized timelines, shaped
    // like the shard tier: §4.3 sharing on, and every follower also
    // follows 16 other posters, so each timeline and each updater group
    // holds realistic neighbours. Post keys are pre-generated.
    const int followers = static_cast<int>(state.range(0));
    ServerConfig cfg;
    cfg.enable_value_sharing = true;
    Server server(cfg);
    server.add_join(kTimelineJoin);
    const std::string body(100, 'x');
    for (int f = 0; f < followers; ++f) {
        server.put(user_key("s|", f) + "star", "1");
        for (int p = 0; p < 16; ++p)
            server.put(user_key("s|", f) + "other"
                           + pad_number(static_cast<uint64_t>((f + p) % 64),
                                        4),
                       "1");
    }
    for (int p = 0; p < 64; ++p)
        server.put("p|other" + pad_number(static_cast<uint64_t>(p), 4) + "|"
                       + pad_number(0, 10),
                   body);
    for (int f = 0; f < followers; ++f) {
        std::string lo = user_key("t|", f);
        server.scan(lo, prefix_successor(lo),
                    [](const std::string&, const ValuePtr&) {});
    }
    std::vector<std::string> post_keys;
    for (uint64_t i = 1; i <= 1 << 16; ++i)
        post_keys.push_back("p|star|" + pad_number(i, 10));
    uint64_t now = 0;
    for (auto _ : state) {
        server.put(post_keys[now++ % post_keys.size()], body);
        benchmark::DoNotOptimize(server.eager_update_count());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations())
                            * followers);
}
BENCHMARK(BM_FanOutPost)->Arg(10)->Arg(100)->Arg(1000);

// Hot timeline checks — "anything since my last post?" over an
// already-materialized timeline — with `range(0)` timelines cached. Each
// user follows one of 64 posters with three posts, and checks from the
// newest post's timestamp (one row back). `checked` users, spread evenly
// over the cached ones (all of them when checked >= users), are visited
// in a fixed shuffled order.
void fresh_checks(benchmark::State& state, int checked) {
    const int users = static_cast<int>(state.range(0));
    Server server;
    server.add_join(kTimelineJoin);
    for (int p = 0; p < 64; ++p)
        for (uint64_t i = 1; i <= 3; ++i)
            server.put("p|poster" + pad_number(static_cast<uint64_t>(p), 4)
                           + "|" + pad_number(i, 10),
                       "tweet");
    std::vector<std::pair<std::string, std::string>> checks;
    for (int u = 0; u < users; ++u) {
        server.put(user_key("s|", u) + "poster"
                       + pad_number(static_cast<uint64_t>(u % 64), 4),
                   "1");
        std::string lo = user_key("t|", u);
        std::string hi = prefix_successor(lo);
        server.scan(lo, hi, [](const std::string&, const ValuePtr&) {});
        if (checked >= users
            || static_cast<int64_t>(u) * checked % users < checked)
            checks.emplace_back(lo + pad_number(3, 10), hi);
    }
    Rng rng(7);
    for (size_t i = checks.size(); i > 1; --i)
        std::swap(checks[i - 1], checks[rng.below(i)]);
    size_t rows = 0;
    auto count = [&rows](const std::string&, const ValuePtr&) { ++rows; };
    size_t next = 0;
    for (auto _ : state) {
        const auto& c = checks[next];
        server.scan(c.first, c.second, count);
        if (++next == checks.size())
            next = 0;
    }
    benchmark::DoNotOptimize(rows);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

// The same 100 users are checked at every count, so the data the checks
// touch stays cache-resident and only the number of cached timelines
// varies: the time should be flat in it.
void BM_FreshCheck(benchmark::State& state) {
    fresh_checks(state, 100);
}
BENCHMARK(BM_FreshCheck)->Arg(1000)->Arg(30000);

// Every cached timeline is checked, so at larger counts each check also
// pays the cache and TLB misses of a working set that outgrows them.
void BM_FreshCheckCold(benchmark::State& state) {
    fresh_checks(state, INT32_MAX);
}
BENCHMARK(BM_FreshCheckCold)->Arg(1000)->Arg(30000);

void BM_MpscQueueSingleProducer(benchmark::State& state) {
    // The shard mailbox hot path with no contention: one thread both
    // enqueues and drains, so this is the raw push+pop cost (two
    // allocations, one exchange, two fence pairs).
    MpscQueue<uint64_t> queue;
    RoleGuard consumer(queue.consumer_role());
    uint64_t v = 0;
    for (auto _ : state) {
        queue.push(v++);
        uint64_t out;
        while (!queue.try_pop(out))
            ;
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MpscQueueSingleProducer);

void BM_MpscQueueMultiProducer(benchmark::State& state) {
    // Producers hammering one consumer's mailbox (the fan-in a busy
    // shard sees). Thread 0 drains; the rest push. The queue lives
    // across invocations (benchmark threads are not barrier-synchronized
    // around setup/teardown); producers_ tracks when pushing is done so
    // the consumer can drain the tail and stop.
    static MpscQueue<uint64_t> queue;
    static std::atomic<int> producers{0};
    if (state.thread_index() == 0) {
        RoleGuard consumer(queue.consumer_role());
        uint64_t drained = 0;
        for (auto _ : state) {
            uint64_t out;
            if (queue.try_pop(out)) {
                ++drained;
                benchmark::DoNotOptimize(out);
            }
        }
        state.SetItemsProcessed(static_cast<int64_t>(drained));
        // Wait out the producers, then drain what they left queued, so
        // the next invocation starts empty.
        while (producers.load(std::memory_order_acquire) != 0)
            std::this_thread::yield();
        uint64_t out;
        while (queue.try_pop(out))
            ;
    } else {
        producers.fetch_add(1, std::memory_order_acq_rel);
        uint64_t v = 0;
        for (auto _ : state)
            queue.push(v++);
        producers.fetch_sub(1, std::memory_order_acq_rel);
    }
}
BENCHMARK(BM_MpscQueueMultiProducer)->Threads(4)->UseRealTime();

}  // namespace
}  // namespace pequod

BENCHMARK_MAIN();
