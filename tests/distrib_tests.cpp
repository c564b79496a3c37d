// Tests for the distribution layer: a base/compute cluster must serve
// exactly what a single-server engine serves, stay eagerly fresh through
// range subscriptions, subscribe each range once, and split client from
// inter-server traffic in its accounting.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/base.hh"
#include "core/server.hh"
#include "distrib/cluster.hh"

namespace pequod {
namespace {

constexpr const char* kTimelineJoin =
    "t|<u>|<ts:10>|<p> = check s|<u>|<p> copy p|<p>|<ts:10>";

distrib::Cluster::Config small_config() {
    distrib::Cluster::Config ccfg;
    ccfg.base_servers = 2;
    ccfg.compute_servers = 3;
    ccfg.base_tables = {"s|", "p|"};
    ccfg.joins = kTimelineJoin;
    return ccfg;
}

std::string ukey(uint32_t u) {
    return pad_number(u, 8);
}

distrib::ScanResult cluster_timeline(distrib::Cluster& cluster,
                                     uint32_t u) {
    std::string lo = "t|" + ukey(u) + "|";
    distrib::ScanResult out;
    cluster.client().scan(cluster.compute_for(ukey(u)).id(), lo,
                          prefix_successor(lo), &out);
    return out;
}

TEST(Cluster, MatchesSingleServerEngine) {
    distrib::Cluster cluster(small_config());
    Server reference;
    reference.add_join(kTimelineJoin);
    // A small follower graph plus posts, spread across both tiers.
    const uint32_t kUsers = 12;
    for (uint32_t u = 0; u < kUsers; ++u)
        for (uint32_t k = 1; k <= 3; ++k) {
            std::string key =
                "s|" + ukey(u) + "|" + ukey((u + k * 7) % kUsers);
            cluster.put(key, "1");
            reference.put(key, "1");
        }
    uint64_t now = 1;
    for (uint32_t i = 0; i < 40; ++i) {
        std::string key =
            "p|" + ukey(i % kUsers) + "|" + pad_number(now++, 10);
        cluster.put(key, "post " + std::to_string(i));
        reference.put(key, "post " + std::to_string(i));
    }
    cluster.settle();
    for (uint32_t u = 0; u < kUsers; ++u) {
        distrib::ScanResult got = cluster_timeline(cluster, u);
        distrib::ScanResult want;
        std::string lo = "t|" + ukey(u) + "|";
        reference.scan(lo, prefix_successor(lo),
                       [&want](const std::string& k, const ValuePtr& v) {
                           want.emplace_back(k, *v);
                       });
        EXPECT_EQ(got, want) << "user " << u;
    }
}

TEST(Cluster, NotificationsKeepRemoteTimelinesFresh) {
    distrib::Cluster cluster(small_config());
    cluster.put("s|" + ukey(1) + "|" + ukey(2), "1");
    cluster.put("p|" + ukey(2) + "|" + pad_number(1, 10), "old");
    cluster.settle();
    ASSERT_EQ(cluster_timeline(cluster, 1).size(), 1u);
    uint64_t subscribes_after_warm = cluster.net().stats().messages_by_type[
        static_cast<int>(net::MsgType::kSubscribe)];
    EXPECT_GE(subscribes_after_warm, 2u);  // s|1 and p|2 ranges

    // A new post reaches the already-materialized remote timeline via a
    // notify, with no new subscription and no recomputation.
    cluster.put("p|" + ukey(2) + "|" + pad_number(2, 10), "fresh");
    cluster.settle();
    distrib::ScanResult tl = cluster_timeline(cluster, 1);
    ASSERT_EQ(tl.size(), 2u);
    EXPECT_EQ(tl[1].second, "fresh");
    EXPECT_EQ(cluster.net().stats().messages_by_type[static_cast<int>(
                  net::MsgType::kSubscribe)],
              subscribes_after_warm);

    // A new follow triggers backfill of the poster's existing posts at
    // the compute server (a fresh subscription for the new range).
    cluster.put("p|" + ukey(3) + "|" + pad_number(3, 10), "pre-follow");
    cluster.put("s|" + ukey(1) + "|" + ukey(3), "1");
    cluster.settle();
    EXPECT_EQ(cluster_timeline(cluster, 1).size(), 3u);
    EXPECT_GT(cluster.net().stats().messages_by_type[static_cast<int>(
                  net::MsgType::kSubscribe)],
              subscribes_after_warm);
}

TEST(Cluster, AccountsServerTrafficSeparately) {
    distrib::Cluster cluster(small_config());
    cluster.put("s|" + ukey(1) + "|" + ukey(2), "1");
    cluster.put("p|" + ukey(2) + "|" + pad_number(1, 10), "x");
    cluster.settle();
    // Client-only traffic so far... the scan triggers subscriptions.
    cluster_timeline(cluster, 1);
    cluster.put("p|" + ukey(2) + "|" + pad_number(2, 10), "y");
    cluster.settle();
    uint64_t server_bytes = 0;
    for (int b = 0; b < 2; ++b)
        server_bytes += cluster.base(b).stats().server_bytes;
    for (int c = 0; c < 3; ++c)
        server_bytes += cluster.compute(c).stats().server_bytes;
    uint64_t total = cluster.net().stats().bytes;
    // Subscribes, backfills, and notifies happened, so the share is
    // nonzero — but client puts/scans dominate, so it is well below 1.
    EXPECT_GT(server_bytes, 0u);
    EXPECT_LT(server_bytes, total);
    // The client is not a server: its frames never count as server bytes.
    EXPECT_EQ(cluster.client().stats().server_bytes, 0u);
    // Compute CPU was attributed.
    double busy = 0;
    for (int c = 0; c < 3; ++c)
        busy += cluster.compute(c).stats().busy_seconds;
    EXPECT_GT(busy, 0.0);
}

TEST(Cluster, WholeTableSourceRangeSubscribesEveryBase) {
    // A join whose sink scan binds no slots consults its source's whole
    // table — a range sharded across every base server, not one group.
    // The subscription must reach all of them, or most of the data is
    // silently missing.
    distrib::Cluster::Config ccfg;
    ccfg.base_servers = 4;
    ccfg.compute_servers = 2;
    ccfg.base_tables = {"p|"};
    ccfg.joins = "all|<ts:10>|<p> = copy p|<p>|<ts:10>";
    distrib::Cluster cluster(ccfg);
    Server reference;
    reference.add_join(ccfg.joins);
    for (uint32_t p = 0; p < 8; ++p) {
        std::string key =
            "p|" + ukey(p) + "|" + pad_number(100 + p, 10);
        cluster.put(key, "post");
        reference.put(key, "post");
    }
    cluster.settle();
    distrib::ScanResult got;
    cluster.client().scan(cluster.compute_for("all").id(), "all|", "all}",
                          &got);
    distrib::ScanResult want;
    reference.scan("all|", "all}",
                   [&want](const std::string& k, const ValuePtr& v) {
                       want.emplace_back(k, *v);
                   });
    ASSERT_EQ(want.size(), 8u);
    EXPECT_EQ(got, want);
    // And later posts at any base flow through the subscriptions.
    cluster.put("p|" + ukey(5) + "|" + pad_number(200, 10), "late");
    cluster.settle();
    cluster.client().scan(cluster.compute_for("all").id(), "all|", "all}",
                          &got);
    EXPECT_EQ(got.size(), 9u);
}

TEST(Cluster, AffinityIsDeterministic) {
    distrib::Cluster cluster(small_config());
    for (uint32_t u = 0; u < 20; ++u) {
        int first = cluster.compute_for(ukey(u)).id();
        EXPECT_EQ(cluster.compute_for(ukey(u)).id(), first);
        EXPECT_GE(first, 2);      // computes follow the two bases
        EXPECT_LT(first, 2 + 3);
    }
    EXPECT_EQ(cluster.home_base("s|" + ukey(4) + "|" + ukey(9)),
              cluster.home_base("s|" + ukey(4) + "|" + ukey(11)))
        << "a table group must have one home base server";
}

// ---- failure handling (§10) -------------------------------------------------

std::string post_key(uint32_t u, uint64_t ts) {
    return "p|" + ukey(u) + "|" + pad_number(ts, 10);
}

// Follow 1 -> 2 with one post, materialize user 1's timeline, and return
// the (base endpoint id, compute endpoint id) link carrying 2's posts.
std::pair<int, int> warm_one_timeline(distrib::Cluster& cluster) {
    cluster.put("s|" + ukey(1) + "|" + ukey(2), "1");
    cluster.put(post_key(2, 1), "post 1");
    cluster.settle();
    EXPECT_EQ(cluster_timeline(cluster, 1).size(), 1u);
    return {cluster.home_base(post_key(2, 1)),
            cluster.compute_for(ukey(1)).id()};
}

TEST(ClusterFaults, DroppedNotifyGapDetectedOnNextNotify) {
    distrib::Cluster cluster(small_config());
    cluster.network().set_fault_seed(7);
    auto [b, cid] = warm_one_timeline(cluster);
    net::FaultConfig drop_all;
    drop_all.drop = 1.0;
    cluster.network().set_link_faults(b, cid, drop_all);
    cluster.put(post_key(2, 2), "lost in transit");
    cluster.settle();
    // The loss is not yet detectable: nothing else arrived on the link.
    EXPECT_EQ(cluster_timeline(cluster, 1).size(), 1u);
    cluster.network().clear_link_faults();
    cluster.put(post_key(2, 3), "exposes the gap");
    cluster.settle();
    const distrib::FaultStats& fs =
        cluster.compute_for(ukey(1)).fault_stats();
    EXPECT_GE(fs.gaps_detected, 1u);
    EXPECT_GE(fs.resubscribes, 1u);
    // The re-subscription backfilled the dropped post too.
    distrib::ScanResult tl = cluster_timeline(cluster, 1);
    ASSERT_EQ(tl.size(), 3u);
    EXPECT_EQ(tl[1].second, "lost in transit");
}

TEST(ClusterFaults, HeartbeatDetectsSilentlyLostTail) {
    distrib::Cluster cluster(small_config());
    cluster.network().set_fault_seed(8);
    auto [b, cid] = warm_one_timeline(cluster);
    net::FaultConfig drop_all;
    drop_all.drop = 1.0;
    cluster.network().set_link_faults(b, cid, drop_all);
    cluster.put(post_key(2, 2), "lost tail");
    cluster.settle();
    cluster.network().clear_link_faults();
    // No further traffic will ever expose the gap; the heartbeat must.
    EXPECT_EQ(cluster_timeline(cluster, 1).size(), 1u);
    cluster.tick();
    const distrib::FaultStats& fs =
        cluster.compute_for(ukey(1)).fault_stats();
    EXPECT_GE(fs.gaps_detected, 1u);
    distrib::ScanResult tl = cluster_timeline(cluster, 1);
    ASSERT_EQ(tl.size(), 2u);
    EXPECT_EQ(tl[1].second, "lost tail");
}

TEST(ClusterFaults, DuplicatedNotifiesApplyOnce) {
    distrib::Cluster cluster(small_config());
    cluster.network().set_fault_seed(9);
    warm_one_timeline(cluster);
    net::FaultConfig dup_all;
    dup_all.duplicate = 1.0;
    cluster.network().set_default_faults(dup_all);
    cluster.put(post_key(2, 2), "delivered at least once");
    cluster.settle();
    cluster.network().clear_link_faults();
    const distrib::FaultStats& fs =
        cluster.compute_for(ukey(1)).fault_stats();
    EXPECT_GE(fs.duplicate_drops, 1u);
    distrib::ScanResult tl = cluster_timeline(cluster, 1);
    ASSERT_EQ(tl.size(), 2u);  // no duplicated rows
    EXPECT_EQ(tl[1].second, "delivered at least once");
}

TEST(ClusterFaults, BaseRestartDetectedByHeartbeat) {
    distrib::Cluster cluster(small_config());
    auto [b, cid] = warm_one_timeline(cluster);
    (void)cid;
    int bi = b;  // base endpoint ids equal their tier index
    cluster.crash_base(bi);
    EXPECT_TRUE(cluster.base_crashed(bi));
    // Writes to the crashed base are lost for good (the client's retry
    // decision, not ours).
    EXPECT_FALSE(cluster.put(post_key(2, 2), "lost for good"));
    cluster.restart_base(bi);
    EXPECT_FALSE(cluster.base_crashed(bi));
    // The restarted base kept its durable tables but forgot every
    // subscriber: this put lands, and nobody is notified.
    EXPECT_TRUE(cluster.put(post_key(2, 3), "after restart"));
    cluster.settle();
    EXPECT_EQ(cluster_timeline(cluster, 1).size(), 1u);  // stale
    // The heartbeat sees the new generation and re-subscribes.
    cluster.tick();
    const distrib::FaultStats& fs =
        cluster.compute_for(ukey(1)).fault_stats();
    EXPECT_GE(fs.base_restarts_detected, 1u);
    distrib::ScanResult tl = cluster_timeline(cluster, 1);
    ASSERT_EQ(tl.size(), 2u);  // post 1 (durable) + post 3; post 2 never landed
    EXPECT_EQ(tl[1].second, "after restart");
    EXPECT_GT(cluster.base(bi).generation(), 1u);
}

TEST(ClusterFaults, ComputeRestartRematerializesOnDemand) {
    distrib::Cluster cluster(small_config());
    warm_one_timeline(cluster);
    int ci = cluster.compute_index_for(ukey(1));
    cluster.crash_compute(ci);
    EXPECT_TRUE(cluster.compute_crashed(ci));
    // The base still accepts the write; the notify dies at the crashed
    // endpoint.
    EXPECT_TRUE(cluster.put(post_key(2, 2), "while compute down"));
    cluster.settle();
    cluster.restart_compute(ci);
    EXPECT_FALSE(cluster.compute_crashed(ci));
    EXPECT_EQ(cluster.compute(ci).subscribed_range_count(), 0u);
    // First read after the blank restart re-subscribes and backfills
    // everything, including the write made while down.
    distrib::ScanResult tl = cluster_timeline(cluster, 1);
    ASSERT_EQ(tl.size(), 2u);
    EXPECT_EQ(tl[1].second, "while compute down");
    EXPECT_GE(cluster.compute(ci).fault_stats().restarts, 1u);
    // Live updates flow again through the re-established subscriptions.
    cluster.put(post_key(2, 3), "fresh after restart");
    cluster.settle();
    EXPECT_EQ(cluster_timeline(cluster, 1).size(), 3u);
}

TEST(ClusterFaults, PartitionedSubscribeRetriesUnderBackoffThenHeals) {
    distrib::Cluster cluster(small_config());
    cluster.put("s|" + ukey(1) + "|" + ukey(2), "1");
    cluster.put(post_key(2, 1), "post 1");
    cluster.settle();
    // Partition user 1's compute server from both bases *before* the
    // first read, so every subscription leg fails.
    int cid = cluster.compute_for(ukey(1)).id();
    int ci = cluster.compute_index_for(ukey(1));
    cluster.network().set_partition({0, 1}, {cid});
    EXPECT_TRUE(cluster_timeline(cluster, 1).empty());  // degraded
    EXPECT_GE(cluster.compute(ci).pending_retry_count(), 1u);
    cluster.tick();  // retries fire and fail; backoff grows
    EXPECT_GE(cluster.compute(ci).fault_stats().retries, 1u);
    EXPECT_GE(cluster.compute(ci).pending_retry_count(), 1u);
    cluster.network().clear_partitions();
    for (int i = 0; i < 8 && cluster.compute(ci).pending_retry_count();
         ++i)
        cluster.tick();
    EXPECT_EQ(cluster.compute(ci).pending_retry_count(), 0u);
    // The healed retries backfilled; no client rescan was needed to
    // repair the materialized timeline.
    distrib::ScanResult tl = cluster_timeline(cluster, 1);
    ASSERT_EQ(tl.size(), 1u);
    EXPECT_EQ(tl[0].second, "post 1");
}

TEST(ClusterFaults, RetryBudgetExhaustionFallsBackToOnDemand) {
    distrib::Cluster cluster(small_config());
    cluster.put("s|" + ukey(1) + "|" + ukey(2), "1");
    cluster.put(post_key(2, 1), "post 1");
    cluster.settle();
    int cid = cluster.compute_for(ukey(1)).id();
    int ci = cluster.compute_index_for(ukey(1));
    cluster.network().set_partition({0, 1}, {cid});
    EXPECT_TRUE(cluster_timeline(cluster, 1).empty());
    // Every retry waits at most kBackoffMaxTicks, so this many ticks
    // spend the whole budget.
    for (int i = 0; i < distrib::kRetryBudget
                            * static_cast<int>(distrib::kBackoffMaxTicks);
         ++i)
        cluster.tick();
    const distrib::FaultStats& fs = cluster.compute(ci).fault_stats();
    EXPECT_GE(fs.abandoned, 1u);
    EXPECT_EQ(cluster.compute(ci).pending_retry_count(), 0u);
    // Heal. The abandoned ranges were invalidated, so the next read
    // starts a fresh subscription cycle and serves complete data.
    cluster.network().clear_partitions();
    distrib::ScanResult tl = cluster_timeline(cluster, 1);
    ASSERT_EQ(tl.size(), 1u);
    EXPECT_EQ(tl[0].second, "post 1");
}

}  // namespace
}  // namespace pequod
