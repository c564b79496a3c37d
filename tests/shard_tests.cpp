// Shard-tier tests (DESIGN.md §12), almost all in inline mode — one
// thread drives every shard through the step()/release_staged() API, so
// these check protocol correctness (routing, framing, subscribe/
// backfill/notify, broadcast filtering) deterministically; the threaded
// worker path under load is thread_stress_tests' job. The exceptions
// are the two gated fan-out tests at the end, which park one worker
// mid-put to pin when a peer may first see the post.
//
// The load-bearing test is SingleShardMatchesServerByteForByte: a
// one-shard ShardedServer must be indistinguishable from a plain Server
// on a replayed Twip-style trace — every scan reply and the final
// store contents compare byte-for-byte — proving the shard tier adds
// no behavior at N=1, only routing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/base.hh"
#include "common/mpsc_queue.hh"
#include "common/rng.hh"
#include "core/server.hh"
#include "net/message.hh"
#include "shard/routing.hh"
#include "shard/sharded_server.hh"
#include "temp_dir.hh"

namespace pequod {
namespace shard {
namespace {

constexpr const char* kTimelineJoin =
    "t|<u>|<ts:10>|<p> = check s|<u>|<p> copy p|<p>|<ts:10>";

using Items = std::vector<std::pair<std::string, std::string>>;

// Drive every shard until no mailbox, deferred, or pending fan-out
// remains anywhere.
void settle(ShardedServer& ss) {
    bool any = true;
    while (any) {
        any = false;
        for (int s = 0; s != ss.shards(); ++s)
            if (ss.step(s)) {
                ss.release_staged(s, 0);
                any = true;
            }
    }
}

Items drain_replies(ShardClient& client) {
    Items items;
    Frame f;
    while (client.poll_reply(f)) {
        net::Message m;
        while (net::decode_message(f.buf, m))
            for (auto& kv : m.items)
                items.push_back(std::move(kv));
    }
    return items;
}

TEST(ShardRouting, GroupsAndOwnership) {
    EXPECT_EQ(routing_group("t|u1|0000000003|p7"), Str("t|u1|"));
    EXPECT_EQ(routing_group("s|u1|u2"), Str("s|u1|"));
    EXPECT_EQ(routing_group("t|u1|"), Str("t|u1|"));
    EXPECT_EQ(routing_group("t|u1"), Str("t|u1"));  // open: no second '|'
    EXPECT_EQ(routing_group("plainkey"), Str("plainkey"));

    EXPECT_TRUE(group_closed("t|u1|"));
    EXPECT_TRUE(group_closed("t|u1|x"));
    EXPECT_FALSE(group_closed("t|u1"));
    EXPECT_FALSE(group_closed("t|"));
    EXPECT_FALSE(group_closed("plainkey"));

    // Every key in a closed group routes with its group.
    for (int n : {1, 2, 4, 8}) {
        int g = shard_of("t|u1|", n);
        EXPECT_EQ(shard_of("t|u1|0000000001|p", n), g);
        EXPECT_EQ(shard_of("t|u1|zzz", n), g);
        EXPECT_GE(g, 0);
        EXPECT_LT(g, n);
    }

    // A per-group range has one owner; table-wide and open ranges don't.
    std::string lo = "t|u1|";
    EXPECT_EQ(shard_for_range(lo, prefix_successor(lo), 4),
              shard_of(lo, 4));
    EXPECT_EQ(shard_for_range("t|", prefix_successor("t|"), 4), -1);
    EXPECT_EQ(shard_for_range("t|u1", "t|u2", 4), -1);  // spans u1x groups
    EXPECT_EQ(shard_for_range("t|u1|", "", 4), -1);     // unbounded hi
}

TEST(ShardRouting, ShardsAreReasonablyBalanced) {
    constexpr int kShards = 8;
    std::vector<int> counts(kShards, 0);
    for (int u = 0; u != 1000; ++u)
        ++counts[static_cast<size_t>(
            shard_of("t|" + pad_number(static_cast<uint64_t>(u), 6) + "|",
                     kShards))];
    for (int c : counts) {
        EXPECT_GT(c, 1000 / kShards / 2);
        EXPECT_LT(c, 1000 * 2 / kShards);
    }
}

TEST(ShardBatch, CodecRoundTripsMixedBatches) {
    std::vector<net::Message> in;
    net::Message put;
    put.type = net::MsgType::kPut;
    put.key = "p|u1|0000000001";
    put.value = "hello";
    put.seq = 42;
    in.push_back(put);
    net::Message scan;
    scan.type = net::MsgType::kScan;
    scan.key = "t|u1|";
    scan.value = "t|u1}";
    scan.seq = 43;
    scan.epoch = 1;  // broadcast flag survives the trip
    in.push_back(scan);
    net::Message notify;
    notify.type = net::MsgType::kNotify;
    notify.items = {{"p|u2|0000000002", "world"}, {"s|u1|u2", "1"}};
    in.push_back(notify);

    // A batch is back-to-back frames, read with the same decode_message
    // loop ShardedServer::apply_frame runs; an exhausted buffer ends it.
    auto decode_all = [](net::Buffer& buf) {
        std::vector<net::Message> msgs;
        net::Message m;
        while (net::decode_message(buf, m))
            msgs.push_back(m);
        EXPECT_EQ(buf.remaining(), 0u) << "a frame failed to decode";
        return msgs;
    };
    net::Buffer b;
    for (const net::Message& m : in)
        net::encode_message(b, m);
    std::vector<net::Message> out = decode_all(b);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].key, put.key);
    EXPECT_EQ(out[0].value, put.value);
    EXPECT_EQ(out[0].seq, 42u);
    EXPECT_EQ(out[1].seq, 43u);
    EXPECT_EQ(out[1].epoch, 1u);
    EXPECT_EQ(out[2].items, notify.items);

    // Batches build incrementally: appending one more message to the
    // same buffer extends the batch.
    net::encode_message(b, put);
    std::vector<net::Message> more = decode_all(b);
    ASSERT_EQ(more.size(), 1u);
    EXPECT_EQ(more[0].key, put.key);
}

TEST(ShardMailbox, CapacityBoundsAndPeek) {
    MpscQueue<int> q;
    q.set_capacity(2);
    int a = 1, b = 2, c = 3;
    EXPECT_TRUE(q.try_push(a));
    EXPECT_TRUE(q.try_push(b));
    EXPECT_FALSE(q.try_push(c));  // at capacity
    EXPECT_EQ(q.approx_size(), 2u);
    // push_force ignores the cap (worker-to-worker frames must not
    // block behind client backpressure).
    q.push_force(3);
    EXPECT_EQ(q.approx_size(), 3u);

    RoleGuard consumer(q.consumer_role());
    ASSERT_NE(q.peek(), nullptr);
    EXPECT_EQ(*q.peek(), 1);  // peek does not consume
    int out = 0;
    EXPECT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, 1);
    ASSERT_NE(q.peek(), nullptr);
    EXPECT_EQ(*q.peek(), 2);
    // The forced element counts against the cap: one pop only brought
    // the size back down to capacity, so try_push still refuses.
    int d = 4;
    EXPECT_FALSE(q.try_push(d));
    EXPECT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, 2);
    EXPECT_TRUE(q.try_push(d));
    while (q.try_pop(out))
        ;
    EXPECT_EQ(q.peek(), nullptr);
    EXPECT_EQ(q.approx_size(), 0u);
}

// The N=1 acceptance criterion: replay a Twip-style trace through a
// single-shard ShardedServer and through a plain Server; every scan
// reply and the final state must be byte-identical.
TEST(ShardedServer, SingleShardMatchesServerByteForByte) {
    constexpr int kUsers = 16;
    constexpr int kOps = 600;
    auto user = [](int u) {
        return "u" + pad_number(static_cast<uint64_t>(u), 3);
    };

    ShardConfig cfg;
    cfg.shards = 1;
    cfg.joins = kTimelineJoin;
    ShardedServer ss(cfg);
    ShardClient& client = ss.make_client();

    Server plain;
    plain.add_join(kTimelineJoin);

    // Same graph + prepopulated posts on both sides.
    uint64_t ts = 0;
    for (int u = 0; u != kUsers; ++u)
        for (int f = 1; f <= 3; ++f) {
            std::string k = "s|" + user(u) + "|" + user((u + f) % kUsers);
            ss.load(k, "1");
            plain.put(k, "1");
        }
    for (int u = 0; u != kUsers; ++u) {
        std::string k = "p|" + user(u) + "|" + pad_number(++ts, 10);
        ss.load(k, "seed");
        plain.put(k, "seed");
    }

    // One deterministic op trace, applied to both in the same order.
    Rng rng(20140403);
    Items plain_results;
    int scans = 0;
    for (int i = 0; i != kOps; ++i) {
        int u = static_cast<int>(rng.below(kUsers));
        uint64_t kind = rng.below(71);
        if (kind < 60) {  // check
            std::string lo = "t|" + user(u) + "|";
            std::string hi = prefix_successor(lo);
            client.submit_scan(lo, hi);
            ++scans;
            plain.scan(lo, hi,
                       [&](const std::string& k, const ValuePtr& v) {
                           plain_results.emplace_back(k, *v);
                       });
        } else if (kind < 61) {  // post
            std::string k = "p|" + user(u) + "|" + pad_number(++ts, 10);
            client.submit_put(k, "post " + std::to_string(i));
            plain.put(k, "post " + std::to_string(i));
        } else {  // subscribe
            std::string k = "s|" + user(u) + "|"
                + user(static_cast<int>(rng.below(kUsers)));
            client.submit_put(k, "1");
            plain.put(k, "1");
        }
    }
    client.flush();
    settle(ss);

    // Reply streams decode in application order; compare bytes.
    Items sharded_results = drain_replies(client);
    EXPECT_GT(scans, 0);
    EXPECT_EQ(sharded_results, plain_results);

    // Final stores equal, entry for entry.
    Items got, want;
    ss.server(0).scan(Str(), Str(),
                      [&](const std::string& k, const ValuePtr& v) {
                          got.emplace_back(k, *v);
                      });
    plain.scan(Str(), Str(), [&](const std::string& k, const ValuePtr& v) {
        want.emplace_back(k, *v);
    });
    EXPECT_EQ(got, want);
    EXPECT_EQ(ss.server(0).memory_stats().entry_count,
              plain.memory_stats().entry_count);
    ss.server(0).verify();
}

// Cross-shard freshness: users' timelines, subscription lists, and
// posts hash to different shards, so materialization subscribes
// remotely and posts fan out through notify frames. The oracle is one
// Server holding everything.
TEST(ShardedServer, CrossShardSubscribeBackfillNotify) {
    constexpr int kShards = 3;
    constexpr int kUsers = 9;
    auto user = [](int u) {
        return "u" + pad_number(static_cast<uint64_t>(u), 3);
    };

    ShardConfig cfg;
    cfg.shards = kShards;
    cfg.joins = kTimelineJoin;
    cfg.notify_batch_items = 4;  // small, to exercise early flushes
    ShardedServer ss(cfg);
    ShardClient& client = ss.make_client();

    Server oracle;
    oracle.add_join(kTimelineJoin);

    uint64_t ts = 0;
    for (int u = 0; u != kUsers; ++u)
        for (int f = 1; f <= 2; ++f) {
            std::string k = "s|" + user(u) + "|" + user((u + f) % kUsers);
            ss.load(k, "1");
            oracle.put(k, "1");
        }
    for (int u = 0; u != kUsers; ++u) {
        std::string k = "p|" + user(u) + "|" + pad_number(++ts, 10);
        ss.load(k, "seed");
        oracle.put(k, "seed");
    }

    // Materialize every timeline (subscribes + backfills happen here).
    for (int u = 0; u != kUsers; ++u) {
        std::string lo = "t|" + user(u) + "|";
        client.submit_scan(lo, prefix_successor(lo));
    }
    client.flush();
    settle(ss);
    drain_replies(client);

    uint64_t subscribes = 0;
    for (int s = 0; s != kShards; ++s)
        subscribes += ss.stats(s).subscribes_sent;
    EXPECT_GT(subscribes, 0u) << "no cross-shard sources were subscribed";

    // Live writes: posts and new follow edges fan out across shards.
    Rng rng(7);
    for (int i = 0; i != 120; ++i) {
        int u = static_cast<int>(rng.below(kUsers));
        if (i % 3 == 0) {
            std::string k = "s|" + user(u) + "|"
                + user(static_cast<int>(rng.below(kUsers)));
            client.submit_put(k, "1");
            oracle.put(k, "1");
        } else {
            std::string k = "p|" + user(u) + "|" + pad_number(++ts, 10);
            client.submit_put(k, "post " + std::to_string(i));
            oracle.put(k, "post " + std::to_string(i));
        }
    }
    client.flush();
    settle(ss);

    uint64_t notified = 0;
    for (int s = 0; s != kShards; ++s)
        notified += ss.stats(s).notify_items_applied;
    EXPECT_GT(notified, 0u) << "no notify fan-out crossed shards";

    // Every timeline, read at its owner shard, matches the oracle.
    for (int u = 0; u != kUsers; ++u) {
        std::string lo = "t|" + user(u) + "|";
        std::string hi = prefix_successor(lo);
        client.submit_scan(lo, hi);
        client.flush();
        settle(ss);
        Items got = drain_replies(client);
        Items want;
        oracle.scan(lo, hi, [&](const std::string& k, const ValuePtr& v) {
            want.emplace_back(k, *v);
        });
        EXPECT_EQ(got, want) << "timeline diverged for " << user(u);
    }
    for (int s = 0; s != kShards; ++s)
        ss.server(s).verify();
}

// A scan spanning routing groups broadcasts; each shard serves only the
// keys it owns, so merging the reply frames yields each entry exactly
// once even though subscribed source data is replicated across shards.
TEST(ShardedServer, BroadcastScanFiltersReplicas) {
    constexpr int kShards = 2;
    constexpr int kUsers = 6;
    auto user = [](int u) {
        return "u" + pad_number(static_cast<uint64_t>(u), 3);
    };

    ShardConfig cfg;
    cfg.shards = kShards;
    cfg.joins = kTimelineJoin;
    ShardedServer ss(cfg);
    ShardClient& client = ss.make_client();

    Server oracle;
    oracle.add_join(kTimelineJoin);

    uint64_t ts = 0;
    for (int u = 0; u != kUsers; ++u) {
        std::string k = "s|" + user(u) + "|" + user((u + 1) % kUsers);
        ss.load(k, "1");
        oracle.put(k, "1");
        std::string p = "p|" + user(u) + "|" + pad_number(++ts, 10);
        ss.load(p, "seed");
        oracle.put(p, "seed");
    }
    // Materialize timelines first so source replicas exist on the
    // timeline owners — the replicas the broadcast must not re-report.
    for (int u = 0; u != kUsers; ++u) {
        std::string lo = "t|" + user(u) + "|";
        client.submit_scan(lo, prefix_successor(lo));
    }
    client.flush();
    settle(ss);
    drain_replies(client);

    // Broadcast over the whole posts table.
    client.submit_scan("p|", prefix_successor("p|"));
    EXPECT_EQ(client.frames_for_last_scan(), kShards);
    client.flush();
    settle(ss);
    Items got = drain_replies(client);
    std::sort(got.begin(), got.end());
    Items want;
    oracle.scan("p|", prefix_successor("p|"),
                [&](const std::string& k, const ValuePtr& v) {
                    want.emplace_back(k, *v);
                });
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);

    uint64_t broadcasts = 0;
    for (int s = 0; s != kShards; ++s)
        broadcasts += ss.stats(s).broadcast_scans;
    EXPECT_EQ(broadcasts, static_cast<uint64_t>(kShards));
}

// A trailing ';' (or newline) in ShardConfig::joins leaves a blank spec
// that the splitter skips, as distrib::Cluster always did: the server
// constructs and serves the same timeline as with the bare spec.
TEST(ShardedServer, TrailingSemicolonSpecServesSameTimeline) {
    auto timeline = [](const std::string& joins) {
        ShardConfig cfg;
        cfg.shards = 2;
        cfg.joins = joins;
        ShardedServer ss(cfg);
        ShardClient& client = ss.make_client();
        ss.load("s|u000|u001", "1");
        ss.load("s|u000|u002", "1");
        ss.load("p|u001|0000000001", "hello");
        ss.load("p|u002|0000000002", "world");
        client.submit_scan("t|u000|", "t|u000}");
        client.submit_put("p|u002|0000000003", "later");
        client.flush();
        settle(ss);
        client.submit_scan("t|u000|", "t|u000}");
        client.flush();
        settle(ss);
        return drain_replies(client);
    };
    Items want = timeline(kTimelineJoin);
    EXPECT_EQ(want.size(), 5u);  // two rows, then three
    EXPECT_EQ(timeline(std::string(kTimelineJoin) + ";\n"), want);
    EXPECT_EQ(timeline(std::string(kTimelineJoin) + "; ;"), want);
}

// Subscribes, backfills and notifies interleaved across two shards:
// logins materialize timelines (subscribe + backfill), posts fan out
// (notify), and follows make fan-out subscribe new poster ranges
// mid-stream. Every notify and backfill passes its shard's Subscriber,
// which throws on anything out of step; at the end every link must have
// applied every sequence its owner issued, and every timeline must
// match a one-Server oracle.
void run_interleaved_feeds(bool threaded) {
    constexpr int kUsers = 12;
    constexpr int kOps = 900;
    auto user = [](int u) {
        return "u" + pad_number(static_cast<uint64_t>(u), 3);
    };
    ShardConfig cfg;
    cfg.shards = 2;
    cfg.joins = kTimelineJoin;
    cfg.notify_batch_items = 3;  // small, so batches also flush early
    ShardedServer ss(cfg);
    ShardClient& client = ss.make_client();
    Server oracle;
    oracle.add_join(kTimelineJoin);
    uint64_t ts = 0;
    for (int u = 0; u != kUsers; ++u) {
        std::string k = "s|" + user(u) + "|" + user((u + 1) % kUsers);
        ss.load(k, "1");
        oracle.put(k, "1");
        std::string p = "p|" + user(u) + "|" + pad_number(++ts, 10);
        ss.load(p, "seed");
        oracle.put(p, "seed");
    }

    Rng rng(threaded ? 11 : 12);
    // Inline: step shards in a random order and hold staged output back
    // for a while, so backfills (sent directly) overtake staged notifies.
    auto churn = [&] {
        for (int k = 0; k != 6; ++k) {
            int s = static_cast<int>(rng.below(2));
            if (ss.step(s) && rng.below(3) == 0)
                ss.release_staged(s, 0);
        }
    };
    if (threaded)
        ss.start();
    for (int i = 0; i != kOps; ++i) {
        int u = static_cast<int>(rng.below(kUsers));
        uint64_t kind = rng.below(10);
        if (kind < 3) {
            std::string lo = "t|" + user(u) + "|";
            client.submit_scan(lo, prefix_successor(lo));
        } else if (kind < 8) {
            std::string k = "p|" + user(u) + "|" + pad_number(++ts, 10);
            client.submit_put(k, "post " + std::to_string(i));
            oracle.put(k, "post " + std::to_string(i));
        } else {
            std::string k = "s|" + user(u) + "|"
                + user(static_cast<int>(rng.below(kUsers)));
            client.submit_put(k, "1");
            oracle.put(k, "1");
        }
        if (rng.below(3) == 0) {
            client.flush();
            if (!threaded)
                churn();
        }
    }
    client.flush();
    if (threaded) {
        ss.stop();
    } else {
        for (int s = 0; s != 2; ++s)
            ss.release_staged(s, 0);
    }
    settle(ss);
    drain_replies(client);

    uint64_t notify_frames = 0, subscribes = 0;
    int links = 0;
    for (int d = 0; d != 2; ++d) {
        notify_frames += ss.stats(d).notify_frames_sent;
        subscribes += ss.stats(d).subscribes_sent;
        for (int o = 0; o != 2; ++o) {
            if (o == d)
                continue;
            uint64_t got = ss.subscriber(d).next_seq(o);
            uint64_t issued = ss.publisher(o).next_seq(d);
            if (got == 0) {
                EXPECT_EQ(issued, 1u) << "shard " << o
                                      << " notified unlinked shard " << d;
                continue;
            }
            ++links;
            EXPECT_EQ(got, issued) << "shard " << d << " missed notifies "
                                   << "from shard " << o;
        }
    }
    EXPECT_GT(subscribes, 0u);
    EXPECT_GT(notify_frames, 0u);
    EXPECT_EQ(links, 2) << "both shards should read the other's posts";

    for (int u = 0; u != kUsers; ++u) {
        std::string lo = "t|" + user(u) + "|";
        std::string hi = prefix_successor(lo);
        client.submit_scan(lo, hi);
        client.flush();
        settle(ss);
        Items want;
        oracle.scan(lo, hi, [&](const std::string& k, const ValuePtr& v) {
            want.emplace_back(k, *v);
        });
        EXPECT_EQ(drain_replies(client), want) << "timeline of " << user(u);
    }
}

TEST(ShardedServer, InterleavedFeedsStayInStepInline) {
    run_interleaved_feeds(false);
}

TEST(ShardedServer, InterleavedFeedsStayInStepThreaded) {
    run_interleaved_feeds(true);
}

// §4.3 sharing in the shard tier: a notify item lands on the
// subscriber shard as a replica entry, and that shard's fan-out shares
// the replica's buffer instead of copying it into each timeline row.
void run_cross_shard_value_sharing(bool threaded) {
    auto user = [](int u) {
        return "u" + pad_number(static_cast<uint64_t>(u), 3);
    };
    ShardConfig cfg;
    cfg.shards = 2;
    cfg.joins = kTimelineJoin;
    ASSERT_TRUE(cfg.server.enable_value_sharing);
    ShardedServer ss(cfg);
    ShardClient& client = ss.make_client();
    Server oracle;
    oracle.add_join(kTimelineJoin);

    // A poster, one follower whose timeline lives on the shard that
    // owns the poster's posts, and two whose timelines live on the other.
    const std::string poster = user(0);
    int home = shard_of("p|" + poster + "|", 2);
    std::vector<std::string> followers;
    for (int u = 1; followers.size() < 3 && u < 100; ++u) {
        bool local = shard_of("t|" + user(u) + "|", 2) == home;
        if (local == followers.empty())
            followers.push_back(user(u));
    }
    ASSERT_EQ(followers.size(), 3u);
    int remote = 1 - home;
    auto put = [&](const std::string& k, const std::string& v) {
        client.submit_put(k, v);
        oracle.put(k, v);
    };
    auto timeline_on = [&](const std::string& u) {
        std::string lo = "t|" + u + "|";
        std::string hi = prefix_successor(lo);
        client.submit_scan(lo, hi);
        client.flush();
        if (!threaded)
            settle(ss);
        Items got;
        while (got.empty()) {
            got = drain_replies(client);
            if (got.empty())
                std::this_thread::yield();
        }
        Items want;
        oracle.scan(lo, hi, [&](const std::string& k, const ValuePtr& v) {
            want.emplace_back(k, *v);
        });
        EXPECT_EQ(got, want) << "timeline of " << u;
        return got;
    };
    auto quiesce = [&] {
        client.flush();
        if (threaded)
            ss.wait_idle();
        else
            settle(ss);
    };

    const std::string body(100, 'x');
    for (const std::string& f : followers)
        put("s|" + f + "|" + poster, "1");
    put("p|" + poster + "|0000000001", body);
    if (threaded)
        ss.start();
    quiesce();
    for (const std::string& f : followers)
        timeline_on(f);
    // A live post reaches the subscriber shard as a notify item.
    put("p|" + poster + "|0000000002", body + " live");
    quiesce();
    for (const std::string& f : followers)
        timeline_on(f);
    // Overwriting the post shows the new bytes on both shards.
    put("p|" + poster + "|0000000002", "edited");
    quiesce();
    for (const std::string& f : followers) {
        Items got = timeline_on(f);
        ASSERT_EQ(got.size(), 2u);
        EXPECT_EQ(got.back().second, "edited") << "timeline of " << f;
    }
    if (threaded)
        ss.stop();
    EXPECT_GT(ss.stats(remote).notify_items_applied, 0u);
    // The two remote timelines share the replica's buffers: one shared
    // buffer per post on the subscriber shard.
    EXPECT_GT(ss.server(remote).memory_stats().shared_value_count, 0u);
    EXPECT_GT(ss.server(home).memory_stats().shared_value_count, 0u);
    for (int s = 0; s != 2; ++s)
        ss.server(s).verify();
}

TEST(ShardedServer, CrossShardFanOutSharesValuesInline) {
    run_cross_shard_value_sharing(false);
}

TEST(ShardedServer, CrossShardFanOutSharesValuesThreaded) {
    run_cross_shard_value_sharing(true);
}

TEST(ShardedServer, AppliedPutLogFollowsApplicationOrder) {
    ShardConfig cfg;
    cfg.shards = 2;
    cfg.log_applied = true;
    ShardedServer ss(cfg);
    ShardClient& client = ss.make_client();

    std::vector<std::string> keys;
    for (int i = 0; i != 40; ++i) {
        std::string k =
            "k|" + pad_number(static_cast<uint64_t>(i), 4) + "|v";
        keys.push_back(k);
        client.submit_put(k, std::to_string(i));
    }
    client.flush();
    settle(ss);

    // Each shard's log holds exactly the keys it owns, in submit order.
    size_t total = 0;
    for (int s = 0; s != 2; ++s) {
        size_t pos = 0;
        for (const std::string& k : keys) {
            if (shard_of(k, 2) != s)
                continue;
            ASSERT_LT(pos, ss.applied_puts(s).size());
            EXPECT_EQ(ss.applied_puts(s)[pos].first, k);
            ++pos;
        }
        EXPECT_EQ(pos, ss.applied_puts(s).size());
        total += pos;
    }
    EXPECT_EQ(total, keys.size());
}


// A threaded two-shard deployment with the poster's posts on shard A
// and the follower's timeline on shard B. A write observer on A's
// Server parks A's worker inside Server::put of one post key — after
// the write and its local fan-out, before put returns — until the test
// opens the gate, or for at most kGateCap.
class GatedFanOut {
  public:
    static constexpr int kA = 0;
    static constexpr int kB = 1;
    static constexpr std::chrono::seconds kGateCap{5};

    explicit GatedFanOut(const std::string& persist_dir) {
        auto user = [](int u) {
            return "u" + pad_number(static_cast<uint64_t>(u), 3);
        };
        std::string poster, follower;
        for (int u = 0; poster.empty() || follower.empty(); ++u) {
            if (poster.empty() && shard_of("p|" + user(u) + "|", 2) == kA)
                poster = user(u);
            else if (follower.empty()
                     && shard_of("t|" + user(u) + "|", 2) == kB)
                follower = user(u);
        }
        timeline_lo_ = "t|" + follower + "|";
        post_key_ = "p|" + poster + "|" + pad_number(2, 10);
        post_row_ = timeline_lo_ + pad_number(2, 10) + "|" + poster;

        ShardConfig cfg;
        cfg.shards = 2;
        cfg.joins = kTimelineJoin;
        cfg.persist.dir = persist_dir;
        ss_ = std::make_unique<ShardedServer>(cfg);
        client_ = &ss_->make_client();
        ss_->load("s|" + follower + "|" + poster, "1");
        ss_->load("p|" + poster + "|" + pad_number(1, 10), "seed");
        ss_->server(kA).set_write_observer([this](Str key, Str) {
            if (key == Str(post_key_))
                park();
        });
        ss_->start();
    }
    ~GatedFanOut() {
        open_gate();
        ss_->stop();
    }
    GatedFanOut(const GatedFanOut&) = delete;
    GatedFanOut& operator=(const GatedFanOut&) = delete;

    // Materialize the follower's timeline, so B replicates the poster's
    // posts before the gated post is written.
    size_t materialize() {
        return scan_timeline().size();
    }
    void post() {
        client_->submit_put(post_key_, "gated post");
        client_->flush();
    }
    bool wait_parked() {
        return wait_for([this] {
            return parked_.load(std::memory_order_acquire);
        });
    }
    void open_gate() {
        gate_.store(true, std::memory_order_release);
    }
    bool capped() const {
        return capped_.load(std::memory_order_acquire);
    }
    // One check of the follower's timeline, served by shard B.
    bool timeline_has_post() {
        for (const auto& kv : scan_timeline())
            if (kv.first == post_row_)
                return true;
        return false;
    }
    bool wait_post_visible() {
        return wait_for([this] { return timeline_has_post(); });
    }
    bool wait_completion() {
        Completion done;
        return wait_for([&] { return client_->poll_completion(done); });
    }

  private:
    template <typename Pred>
    static bool wait_for(Pred pred) {
        auto deadline = std::chrono::steady_clock::now() + kGateCap;
        while (!pred()) {
            if (std::chrono::steady_clock::now() > deadline)
                return false;
            std::this_thread::yield();
        }
        return true;
    }

    // Runs on A's worker thread.
    void park() {
        parked_.store(true, std::memory_order_release);
        if (!wait_for([this] { return gate_.load(std::memory_order_acquire); }))
            capped_.store(true, std::memory_order_release);
    }

    Items scan_timeline() {
        client_->submit_scan(timeline_lo_, prefix_successor(timeline_lo_));
        client_->flush();
        Frame f;
        if (!wait_for([&] { return client_->poll_reply(f); })) {
            ADD_FAILURE() << "no reply from shard " << kB;
            return {};
        }
        Items items;
        net::Message m;
        while (net::decode_message(f.buf, m))
            for (auto& kv : m.items)
                items.push_back(std::move(kv));
        return items;
    }

    std::string timeline_lo_, post_key_, post_row_;
    // Declared before the server: A's worker reads them until joined.
    std::atomic<bool> gate_{false}, parked_{false}, capped_{false};
    std::unique_ptr<ShardedServer> ss_;
    ShardClient* client_ = nullptr;
};

// Without a WAL, a threaded owner ships a post's notify before its
// local fan-out (§12), so a follower on another shard sees the post
// while the owner is still inside Server::put.
TEST(ShardedServer, PeerSeesPostDuringOwnerFanOut) {
    GatedFanOut g("");
    EXPECT_EQ(g.materialize(), 1u);
    g.post();
    ASSERT_TRUE(g.wait_parked()) << "the owner never applied the post";
    bool seen = false;
    while (!seen && !g.capped())
        seen = g.timeline_has_post();
    g.open_gate();
    EXPECT_TRUE(seen) << "the follower's shard saw the post only after "
                         "the owner's put returned";
    EXPECT_FALSE(g.capped());
    EXPECT_TRUE(g.wait_completion());
}

// With a WAL the staged order stays (§13): no follower sees a post
// before the owner's frame, and so its WAL batch, is flushed.
TEST(ShardedServer, DurablePostHiddenUntilOwnerFrameFlushes) {
    TempDir td;
    GatedFanOut g(td.sub("shards"));
    EXPECT_EQ(g.materialize(), 1u);
    g.post();
    ASSERT_TRUE(g.wait_parked()) << "the owner never applied the post";
    auto until = std::chrono::steady_clock::now()
        + std::chrono::milliseconds(50);
    bool seen_early = false;
    while (!seen_early && std::chrono::steady_clock::now() < until)
        seen_early = g.timeline_has_post();
    g.open_gate();
    EXPECT_FALSE(seen_early) << "a follower saw a post before its WAL flush";
    EXPECT_TRUE(g.wait_completion());
    EXPECT_TRUE(g.wait_post_visible());
    EXPECT_FALSE(g.capped());
}

// A peer frame carrying several notifies, whose first one makes the
// subscriber subscribe a new range and block on the backfill: the rest
// of that frame must apply before a later frame from the same peer,
// which is already waiting in the mailbox, or the later notify arrives
// out of step (a std::logic_error on the worker thread). B is parked
// inside an earlier notify until A has shipped both frames.
TEST(ShardedServer, NestedSubscribeKeepsPeerNotifiesInOrder) {
    constexpr int kA = 0;
    constexpr int kB = 1;
    auto user = [](int u) {
        return "u" + pad_number(static_cast<uint64_t>(u), 3);
    };
    std::string follower, poster, other;
    for (int u = 0; other.empty(); ++u) {
        std::string n = user(u);
        if (follower.empty() && shard_of("s|" + n + "|", 2) == kA
            && shard_of("t|" + n + "|", 2) == kB)
            follower = n;
        else if (shard_of("p|" + n + "|", 2) == kA)
            (poster.empty() ? poster : other) = n;
    }
    auto post = [](const std::string& p, uint64_t ts) {
        return "p|" + p + "|" + pad_number(ts, 10);
    };
    TempDir td;
    ShardConfig cfg;
    cfg.shards = 2;
    cfg.joins = kTimelineJoin;
    cfg.notify_batch_items = 1;  // one notify message per put
    cfg.persist.dir = td.sub("shards");  // staged notifies, one frame each
    ShardedServer ss(cfg);
    ShardClient& client = ss.make_client();
    Server oracle;
    oracle.add_join(kTimelineJoin);
    auto load = [&](const std::string& k, const std::string& v) {
        ss.load(k, v);
        oracle.put(k, v);
    };
    load("s|" + follower + "|" + poster, "1");
    load(post(poster, 1), "p1");
    load(post(other, 2), "o2");

    std::atomic<bool> gate{false}, parked{false};
    const std::string park_key = post(poster, 3);
    ss.server(kB).set_write_observer([&](Str key, Str) {
        if (key != Str(park_key))
            return;
        parked.store(true, std::memory_order_release);
        auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (!gate.load(std::memory_order_acquire)
               && std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
    });
    ss.start();
    auto wait_for = [](auto pred) {
        auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (!pred()) {
            if (std::chrono::steady_clock::now() > deadline)
                return false;
            std::this_thread::yield();
        }
        return true;
    };
    size_t done = 0;
    auto wait_done = [&](size_t n) {
        return wait_for([&] {
            Completion c;
            while (client.poll_completion(c))
                ++done;
            return done >= n;
        });
    };
    auto timeline = [&] {
        std::string lo = "t|" + follower + "|";
        client.submit_scan(lo, prefix_successor(lo));
        client.flush();
        Frame f;
        EXPECT_TRUE(wait_for([&] { return client.poll_reply(f); }));
        Items items;
        net::Message m;
        while (net::decode_message(f.buf, m))
            for (auto& kv : m.items)
                items.push_back(std::move(kv));
        return items;
    };
    auto put = [&](const std::string& k, const std::string& v) {
        client.submit_put(k, v);
        oracle.put(k, v);
    };
    EXPECT_EQ(timeline().size(), 1u);  // B now replicates s| and p|poster|

    put(park_key, "p3");  // B parks applying this notify
    client.flush();
    ASSERT_TRUE(wait_for([&] { return parked.load(); }));
    put("s|" + follower + "|" + other, "1");  // B must subscribe p|other|
    put(post(poster, 4), "p4");               // ...same frame as the follow
    client.flush();
    put(post(poster, 5), "p5");  // a later frame
    client.flush();
    ASSERT_TRUE(wait_done(4)) << "shard A never acknowledged its puts";
    gate.store(true, std::memory_order_release);
    ss.wait_idle();

    Items want;
    std::string lo = "t|" + follower + "|";
    oracle.scan(lo, prefix_successor(lo),
                [&](const std::string& k, const ValuePtr& v) {
                    want.emplace_back(k, *v);
                });
    EXPECT_EQ(want.size(), 5u);
    EXPECT_EQ(timeline(), want);
    ss.stop();
    EXPECT_EQ(ss.subscriber(kB).next_seq(kA), ss.publisher(kA).next_seq(kB));
}

}  // namespace
}  // namespace shard
}  // namespace pequod
