// Conformance suite for the compare::Backend API (DESIGN.md §9): every
// backend must agree on the data-plane contract — put/get round trips,
// ordered scans, batch/flush round-trip accounting — and the backends
// that support joins must deliver fresh join output after writes. The
// capstone is an equivalence check: server-side and client-side Pequod
// must produce identical timelines on the same Twip trace.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "apps/graph.hh"
#include "apps/twip.hh"
#include "common/base.hh"
#include "compare/backend.hh"

namespace pequod {
namespace {

struct BackendCase {
    const char* label;
    std::function<std::unique_ptr<compare::Backend>()> make;
};

// Without this, gtest prints the case as raw bytes — pointers that move
// with every address-space layout — and ctest would name the discovered
// tests differently on every build.
void PrintTo(const BackendCase& c, std::ostream* os) { *os << c.label; }

class BackendConformance
    : public ::testing::TestWithParam<BackendCase> {};

std::vector<BackendCase> all_backends() {
    return {
        {"pequod", [] { return compare::make_pequod_backend(); }},
        {"client_pequod",
         [] { return compare::make_client_pequod_backend(); }},
        {"redis", [] { return compare::make_redis_like_backend(); }},
        {"memcached",
         [] { return compare::make_memcache_like_backend(); }},
        {"minidb", [] { return compare::make_minidb_backend(); }},
    };
}

TEST_P(BackendConformance, PutGetRoundTrip) {
    auto b = GetParam().make();
    EXPECT_FALSE(b->get("a|1", nullptr));
    b->put("a|1", "one");
    b->put("a|2", "two");
    b->flush();
    std::string v;
    ASSERT_TRUE(b->get("a|1", &v));
    EXPECT_EQ(v, "one");
    ASSERT_TRUE(b->get("a|2", &v));
    EXPECT_EQ(v, "two");
    b->put("a|1", "uno");
    ASSERT_TRUE(b->get("a|1", &v));  // reads flush pending writes
    EXPECT_EQ(v, "uno");
    EXPECT_FALSE(b->get("a|3", &v));
}

TEST_P(BackendConformance, ScanIsOrderedAndHalfOpen) {
    auto b = GetParam().make();
    if (!b->supports_scan())
        GTEST_SKIP() << GetParam().label << " has no ordered scan";
    b->put("a|3", "3");
    b->put("a|1", "1");
    b->put("a|4", "4");
    b->put("a|2", "2");
    std::vector<std::string> keys;
    b->scan("a|1", "a|4", [&keys](Str key, Str) {
        keys.push_back(key.str());
    });
    ASSERT_EQ(keys.size(), 3u);
    EXPECT_EQ(keys[0], "a|1");
    EXPECT_EQ(keys[1], "a|2");
    EXPECT_EQ(keys[2], "a|3");  // "a|4" excluded: [lo, hi)
}

TEST_P(BackendConformance, FlushAccountsOneRoundTripPerBatch) {
    auto b = GetParam().make();
    uint64_t before = b->stats().round_trips;
    b->flush();
    EXPECT_EQ(b->stats().round_trips, before);  // empty flush is free
    b->put("a|1", "1");
    b->put("a|2", "2");
    b->put("a|3", "3");
    b->flush();
    EXPECT_EQ(b->stats().round_trips, before + 1);  // one per batch
    b->flush();
    EXPECT_EQ(b->stats().round_trips, before + 1);
    // A synchronous read flushes the pending batch, then pays its own
    // round trip.
    b->put("a|4", "4");
    b->get("a|4", nullptr);
    EXPECT_EQ(b->stats().round_trips, before + 3);
    uint64_t msgs = b->stats().messages;
    EXPECT_GE(msgs, 5u);  // four puts, a get, and its reply
}

TEST_P(BackendConformance, MultiGetMatchesSingleGets) {
    auto b = GetParam().make();
    b->put("a|1", "one");
    b->put("a|3", "three");
    std::vector<std::string> values;
    size_t hits = b->multi_get({"a|1", "a|2", "a|3"}, &values);
    EXPECT_EQ(hits, 2u);
    ASSERT_EQ(values.size(), 3u);
    EXPECT_EQ(values[0], "one");
    EXPECT_EQ(values[1], "");
    EXPECT_EQ(values[2], "three");
}

TEST_P(BackendConformance, JoinOutputStaysFreshAfterWrites) {
    auto b = GetParam().make();
    if (!b->supports_joins())
        GTEST_SKIP() << GetParam().label << " has no joins";
    b->add_join("t|<u>|<ts:10>|<p> = check s|<u>|<p> copy p|<p>|<ts:10>");
    b->put("s|ann|bob", "1");
    b->put("p|bob|" + pad_number(100, 10), "hello");
    std::vector<std::pair<std::string, std::string>> out;
    auto read_timeline = [&b, &out](const char* user) {
        out.clear();
        std::string lo = std::string("t|") + user + "|";
        b->scan(lo, prefix_successor(lo),
                [&out](Str key, Str value) {
                    out.emplace_back(key.str(), value.str());
                });
    };
    read_timeline("ann");
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].first, "t|ann|" + pad_number(100, 10) + "|bob");
    EXPECT_EQ(out[0].second, "hello");
    // A later post must be visible on the next read.
    b->put("p|bob|" + pad_number(200, 10), "again");
    read_timeline("ann");
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[1].second, "again");
    // A later subscription must pull in the new followee's posts.
    b->put("p|cat|" + pad_number(150, 10), "meow");
    b->put("s|ann|cat", "1");
    read_timeline("ann");
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[1].first, "t|ann|" + pad_number(150, 10) + "|cat");
    // Overwriting a post rewrites the timeline entry, not appends.
    b->put("p|bob|" + pad_number(100, 10), "edited");
    read_timeline("ann");
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].second, "edited");
    b->verify();
}

TEST_P(BackendConformance, ChainedJoinStaysFreshThroughDerivedWrites) {
    auto b = GetParam().make();
    if (!b->supports_joins())
        GTEST_SKIP() << GetParam().label << " has no joins";
    if (b->style() == compare::Backend::Style::kMiniDbModel)
        GTEST_SKIP() << "pull joins cannot feed further joins";
    // Join B consumes join A's sink: an eager update into t| must stab
    // t|'s updaters and maintain z| too.
    b->add_join("t|<u>|<ts:10>|<p> = check s|<u>|<p> copy p|<p>|<ts:10>");
    b->add_join("z|<u>|<ts:10>|<p> = copy t|<u>|<ts:10>|<p>");
    b->put("s|ann|bob", "1");
    b->put("p|bob|" + pad_number(100, 10), "first");
    size_t entries = 0;
    auto count_z = [&b, &entries] {
        entries = 0;
        b->scan("z|ann|", prefix_successor("z|ann|"),
                [&entries](Str, Str) { ++entries; });
    };
    count_z();
    EXPECT_EQ(entries, 1u);
    b->put("p|bob|" + pad_number(200, 10), "second");
    count_z();
    EXPECT_EQ(entries, 2u);
    b->verify();
}

INSTANTIATE_TEST_SUITE_P(
    Backends, BackendConformance, ::testing::ValuesIn(all_backends()),
    // gtest's macro expands to a function whose own parameter is named
    // `info`, so the lambda parameter needs a different name under
    // -Wshadow.
    [](const ::testing::TestParamInfo<BackendCase>& param_info) {
        return std::string(param_info.param.label);
    });

// Server-side and client-side Pequod run the same join machinery on
// opposite sides of the RPC boundary; on an identical Twip trace their
// timelines must match entry for entry, reached by the same number of
// eager updates.
TEST(ClientServerEquivalence, SmallTwipTrace) {
    apps::SocialGraph::Config gcfg;
    gcfg.users = 40;
    gcfg.avg_following = 5;
    apps::TwipConfig tcfg;
    tcfg.checks_per_user = 4;
    tcfg.prepopulate_posts_per_user = 2;
    auto graph = apps::SocialGraph::generate(gcfg);

    auto server = compare::make_pequod_backend();
    auto client = compare::make_client_pequod_backend();
    apps::run_twip(*server, graph, tcfg);
    apps::run_twip(*client, graph, tcfg);

    for (uint32_t u = 0; u < gcfg.users; ++u) {
        std::string lo = "t|" + pad_number(u, 6) + "|";
        std::vector<std::pair<std::string, std::string>> a, b;
        server->scan(lo, prefix_successor(lo),
                     [&a](Str key, Str value) {
                         a.emplace_back(key.str(), value.str());
                     });
        client->scan(lo, prefix_successor(lo),
                     [&b](Str key, Str value) {
                         b.emplace_back(key.str(), value.str());
                     });
        ASSERT_EQ(a, b) << "timelines diverge for user " << u;
    }
    // One maintenance algorithm on both sides of the boundary: the same
    // trace must fan out the same number of eager sink updates.
    EXPECT_GT(server->stats().server_updates, 0u);
    EXPECT_EQ(client->stats().server_updates, server->stats().server_updates);
    server->verify();
    client->verify();
}

// The modeled costs must order the systems the way Fig 7 does, at least
// where the gap is structural: the relational model joins on every
// check, so it must cost more than materialized Pequod on any trace
// with repeated checks.
TEST(Fig7Ordering, PequodBeatsRelationalModel) {
    apps::SocialGraph::Config gcfg;
    gcfg.users = 60;
    gcfg.avg_following = 6;
    apps::TwipConfig tcfg;
    tcfg.checks_per_user = 8;
    auto graph = apps::SocialGraph::generate(gcfg);

    auto pequod = compare::make_pequod_backend();
    auto minidb = compare::make_minidb_backend();
    auto rp = apps::run_twip(*pequod, graph, tcfg);
    auto rm = apps::run_twip(*minidb, graph, tcfg);
    EXPECT_LT(rp.modeled_rpc_seconds, rm.modeled_rpc_seconds);
}

}  // namespace
}  // namespace pequod
