// Concurrency stress suite, built to run under ThreadSanitizer
// (-DPEQUOD_TSAN=ON). Three layers, mirroring how the multi-shard
// server (ROADMAP item 2) will be assembled:
//
//  1. MpscQueue alone: producers hammer the lock-free mailbox while the
//     consumer drains it; TSan checks the release/acquire pairing and
//     the test checks per-producer FIFO order and zero loss.
//  2. One Server behind a std::shared_mutex: concurrent scan readers
//     over pre-materialized ranges race a single writer. The warm scan
//     path is supposed to be read-only (DESIGN.md §11); if any hidden
//     mutation remains — a stats bump, a lazily-built cache — TSan
//     flags the two shared_lock readers touching it concurrently.
//  3. The real ShardedServer (src/shard/) under worker threads: several
//     producer clients drive puts and scans — including cross-shard
//     follows, so the subscribe/backfill/notify protocol runs hot —
//     through bounded mailboxes. Each shard logs the client puts it
//     applied, in order; the test replays those logs into a sequential
//     oracle Server and demands identical per-user timelines, proving
//     the mailboxes neither drop, duplicate, nor tear operations and
//     that cross-shard fan-out converges to the one-server semantics.
//     It runs once without and once with a WAL, the two notify orders.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <random>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/base.hh"
#include "common/mpsc_queue.hh"
#include "core/server.hh"
#include "shard/sharded_server.hh"
#include "temp_dir.hh"

namespace pequod {
namespace {

constexpr const char* kTimelineJoin =
    "t|<u>|<ts:10>|<p> = check s|<u>|<p> copy p|<p>|<ts:10>";

std::vector<std::string> timeline(Server& server, const std::string& user) {
    std::vector<std::string> keys;
    std::string lo = "t|" + user + "|";
    server.scan(lo, prefix_successor(lo),
                [&](const std::string& k, const ValuePtr&) {
                    keys.push_back(k);
                });
    return keys;
}

TEST(MpscQueue, PerProducerFifoUnderContention) {
    constexpr int kProducers = 4;
    constexpr uint64_t kPerProducer = 5000;
    MpscQueue<uint64_t> queue;

    std::vector<std::thread> producers;
    for (int p = 0; p != kProducers; ++p)
        producers.emplace_back([&queue, p]() {
            for (uint64_t i = 0; i != kPerProducer; ++i)
                queue.push(static_cast<uint64_t>(p) * kPerProducer + i);
        });

    // Consume on this thread while the producers run, so pops genuinely
    // interleave with pushes instead of draining a finished queue.
    std::vector<uint64_t> next_seq(kProducers, 0);
    uint64_t received = 0;
    RoleGuard consumer(queue.consumer_role());
    while (received != kProducers * kPerProducer) {
        uint64_t item;
        if (!queue.try_pop(item)) {
            std::this_thread::yield();
            continue;
        }
        ++received;
        auto p = item / kPerProducer;
        auto seq = item % kPerProducer;
        ASSERT_LT(p, static_cast<uint64_t>(kProducers));
        // Each producer's items must arrive in the order it pushed them.
        ASSERT_EQ(seq, next_seq[p]);
        ++next_seq[p];
    }
    for (auto& t : producers)
        t.join();
    uint64_t leftover;
    EXPECT_FALSE(queue.try_pop(leftover));
}

TEST(ThreadStress, ReadersVsWriterOverMaterializedServer) {
    constexpr int kUsers = 8;
    constexpr int kReaders = 3;
    constexpr int kWriterPuts = 150;

    auto user_name = [](int u) { return "u" + std::to_string(u); };

    // The stressed server and a sequential oracle receive identical
    // setup; the oracle then replays the writer's exact put sequence
    // single-threaded, so any divergence in final state is the
    // concurrency's fault.
    Server server;
    Server oracle;
    for (Server* s : {&server, &oracle}) {
        s->add_join(kTimelineJoin);
        for (int u = 0; u != kUsers; ++u) {
            // Everyone follows their two successors: every post fans out.
            s->put("s|" + user_name(u) + "|" + user_name((u + 1) % kUsers),
                   "1");
            s->put("s|" + user_name(u) + "|" + user_name((u + 2) % kUsers),
                   "1");
        }
        uint64_t ts = 0;
        for (int u = 0; u != kUsers; ++u)
            s->put("p|" + user_name(u) + "|" + pad_number(++ts, 10), "seed");
        // Materialize every timeline up front: the readers below stay on
        // the warm, covered scan path for the whole run.
        for (int u = 0; u != kUsers; ++u)
            timeline(*s, user_name(u));
    }

    // The writer's put sequence, precomputed so the oracle can replay it.
    std::vector<std::pair<std::string, std::string>> puts;
    {
        std::mt19937 rng(20140402);
        uint64_t ts = 1000;
        for (int i = 0; i != kWriterPuts; ++i) {
            int u = static_cast<int>(rng() % kUsers);
            puts.emplace_back("p|" + user_name(u) + "|" + pad_number(++ts, 10),
                              "post " + std::to_string(i));
        }
    }

    std::shared_mutex mu;
    std::atomic<bool> writer_done{false};
    std::atomic<uint64_t> keys_seen{0};

    std::vector<std::thread> readers;
    for (int r = 0; r != kReaders; ++r)
        readers.emplace_back([&, r]() {
            std::mt19937 rng(7u + static_cast<unsigned>(r));
            uint64_t local = 0;
            do {
                int u = static_cast<int>(rng() % kUsers);
                std::shared_lock<std::shared_mutex> lock(mu);
                std::string lo = "t|" + user_name(u) + "|";
                server.scan(lo, prefix_successor(lo),
                            [&](const std::string& k, const ValuePtr& v) {
                                local += k.size() + v->size();
                            });
                if (const Entry* e = server.get_ptr("s|" + user_name(u) + "|"
                                                    + user_name((u + 1)
                                                                % kUsers)))
                    local += e->value().length();
                lock.unlock();
                // Give the writer a chance at the mutex; on a one-core
                // box greedy readers otherwise starve it for minutes
                // under TSan.
                std::this_thread::yield();
            } while (!writer_done.load(std::memory_order_acquire));
            keys_seen.fetch_add(local, std::memory_order_relaxed);
        });

    std::thread writer([&]() {
        for (const auto& kv : puts) {
            std::unique_lock<std::shared_mutex> lock(mu);
            server.put(kv.first, kv.second);
        }
        writer_done.store(true, std::memory_order_release);
    });

    writer.join();
    for (auto& t : readers)
        t.join();
    EXPECT_GT(keys_seen.load(), 0u);

    for (const auto& kv : puts)
        oracle.put(kv.first, kv.second);
    for (int u = 0; u != kUsers; ++u)
        EXPECT_EQ(timeline(server, user_name(u)),
                  timeline(oracle, user_name(u)))
            << "timeline diverged for " << user_name(u);
    EXPECT_EQ(server.memory_stats().entry_count,
              oracle.memory_stats().entry_count);
    server.verify();
}

// Both notify orders (§12): without a WAL each put ships its notify
// before its local fan-out; with one, notifies wait for the frame's WAL
// flush. `persist_dir` empty selects the first.
void sharded_servers_match_sequential_replay(const std::string& persist_dir) {
    constexpr int kShards = 3;
    constexpr int kProducers = 3;
    constexpr int kOpsPerProducer = 250;
    constexpr int kUsers = 12;

    auto user_name = [](int u) { return "u" + std::to_string(u); };

    shard::ShardConfig cfg;
    cfg.shards = kShards;
    cfg.joins = kTimelineJoin;
    // Bounded mailboxes so producer flushes hit real backpressure, and a
    // small notify batch so fan-out flushes early and often under TSan.
    cfg.mailbox_capacity = 8;
    cfg.notify_batch_items = 4;
    cfg.log_applied = true;
    cfg.persist.dir = persist_dir;
    shard::ShardedServer ss(cfg);

    std::vector<shard::ShardClient*> clients;
    for (int p = 0; p != kProducers; ++p)
        clients.push_back(&ss.make_client());

    // Follow edges hash users to arbitrary shards, so most timelines
    // have at least one remote poster and the subscribe/backfill/notify
    // protocol carries real traffic. The oracle gets the same preload.
    Server oracle;
    oracle.add_join(kTimelineJoin);
    uint64_t seed_ts = 0;
    for (int u = 0; u != kUsers; ++u)
        for (int f : {1, 5}) {
            std::string k =
                "s|" + user_name(u) + "|" + user_name((u + f) % kUsers);
            ss.load(k, "1");
            oracle.put(k, "1");
        }
    for (int u = 0; u != kUsers; ++u) {
        std::string k =
            "p|" + user_name(u) + "|" + pad_number(++seed_ts, 10);
        ss.load(k, "seed");
        oracle.put(k, "seed");
    }

    ss.start();

    std::vector<std::thread> producers;
    for (int p = 0; p != kProducers; ++p)
        producers.emplace_back([&clients, p, user_name]() {
            shard::ShardClient& client = *clients[static_cast<size_t>(p)];
            std::mt19937 rng(100u + static_cast<unsigned>(p));
            // Per-producer timestamp ranges keep post keys globally
            // unique without coordination.
            uint64_t ts = 1000000u + static_cast<uint64_t>(p) * 1000000u;
            uint64_t puts_outstanding = 0;
            uint64_t replies_outstanding = 0;
            shard::Completion done;
            shard::Frame reply;
            for (int i = 0; i != kOpsPerProducer; ++i) {
                int u = static_cast<int>(rng() % kUsers);
                std::string user = user_name(u);
                switch (rng() % 4) {
                case 0:
                    client.submit_put(
                        "s|" + user + "|"
                            + user_name(static_cast<int>(rng() % kUsers)),
                        "1");
                    ++puts_outstanding;
                    break;
                case 1: {
                    std::string lo = "t|" + user + "|";
                    client.submit_scan(lo, prefix_successor(lo));
                    replies_outstanding += static_cast<uint64_t>(
                        client.frames_for_last_scan());
                    break;
                }
                default:
                    client.submit_put("p|" + user + "|"
                                          + pad_number(++ts, 10),
                                      "post by " + user);
                    ++puts_outstanding;
                    break;
                }
                // Ship every few ops so frames carry real batches; the
                // flush blocks when a mailbox is at capacity.
                if (client.pending_ops() >= 3)
                    client.flush();
                while (client.poll_completion(done))
                    --puts_outstanding;
                while (client.poll_reply(reply))
                    --replies_outstanding;
            }
            client.flush();
            while (puts_outstanding != 0 || replies_outstanding != 0) {
                bool progressed = false;
                while (client.poll_completion(done)) {
                    --puts_outstanding;
                    progressed = true;
                }
                while (client.poll_reply(reply)) {
                    --replies_outstanding;
                    progressed = true;
                }
                if (!progressed)
                    std::this_thread::yield();
            }
        });

    for (auto& t : producers)
        t.join();
    ss.stop();

    // The protocol must actually have run: cross-shard materializations
    // subscribed, and later posts flowed through as notifies.
    uint64_t subscribes = 0, notify_applied = 0;
    for (int s = 0; s != kShards; ++s) {
        subscribes += ss.stats(s).subscribes_sent;
        notify_applied += ss.stats(s).notify_items_applied;
    }
    EXPECT_GT(subscribes, 0u);
    EXPECT_GT(notify_applied, 0u);

    // Replay each shard's applied-put log, in shard order, into the
    // oracle. Every key routes to exactly one shard, so per-key order is
    // preserved and the oracle's final base state matches the cluster's.
    for (int s = 0; s != kShards; ++s)
        for (const auto& kv : ss.applied_puts(s))
            oracle.put(kv.first, kv.second);

    // Compare per-user timelines, each read from the shard that owns it.
    // (Entry counts are not comparable: shards hold replicas of remote
    // source ranges the oracle stores once.)
    for (int u = 0; u != kUsers; ++u) {
        std::string user = user_name(u);
        int home = shard::shard_of(Str("t|" + user + "|"), kShards);
        EXPECT_EQ(timeline(ss.server(home), user), timeline(oracle, user))
            << "timeline diverged for " << user;
    }
    for (int s = 0; s != kShards; ++s)
        ss.server(s).verify();
    oracle.verify();
}

TEST(ThreadStress, ShardedServersMatchSequentialReplay) {
    sharded_servers_match_sequential_replay("");
}

TEST(ThreadStress, DurableShardedServersMatchSequentialReplay) {
    TempDir td;
    sharded_servers_match_sequential_replay(td.sub("shards"));
}

}  // namespace
}  // namespace pequod
