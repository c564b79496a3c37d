// Subscription-protocol tests (src/sub/, DESIGN.md §10, §12): the
// Subscriber's verdict function, table-driven over short frame
// sequences, and a Publisher feeding Subscribers through a recording
// Send callback. Both tiers build on these two classes; the tiers' own
// suites (distrib, chaos, shard, thread_stress) cover the transports.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/base.hh"
#include "net/message.hh"
#include "shard/routing.hh"
#include "sub/subscription.hh"

namespace pequod {
namespace sub {
namespace {

using net::MsgType;

// One frame from owner 0 (or, for kDrop, the tier invalidating that
// link) and the verdict it must get.
constexpr MsgType kDrop = MsgType::kPut;
struct Step {
    MsgType type;
    uint64_t gen, epoch, seq;
    Verdict want;
};
struct Case {
    const char* name;
    std::vector<Step> steps;
};

const char* verdict_name(Verdict v) {
    switch (v) {
    case Verdict::kApply:
        return "apply";
    case Verdict::kDuplicate:
        return "duplicate";
    case Verdict::kGap:
        return "gap";
    case Verdict::kRestart:
        return "restart";
    case Verdict::kStaleEpoch:
        return "stale-epoch";
    }
    return "?";
}

TEST(SubVerdict, TableOfFrameSequences) {
    constexpr MsgType B = MsgType::kBackfill;
    constexpr MsgType N = MsgType::kNotify;
    constexpr MsgType P = MsgType::kPong;
    constexpr Verdict kApply = Verdict::kApply;
    const std::vector<Case> cases = {
        {"a backfill adopts its baseline; notifies apply in sequence",
         {{B, 1, 1, 5, kApply}, {N, 1, 1, 5, kApply}, {N, 1, 1, 6, kApply},
          {N, 1, 1, 7, kApply}}},
        {"an already-applied notify is a duplicate",
         {{B, 1, 1, 5, kApply}, {N, 1, 1, 5, kApply},
          {N, 1, 1, 5, Verdict::kDuplicate}, {N, 1, 1, 4, Verdict::kDuplicate},
          {N, 1, 1, 6, kApply}}},
        {"a skipped sequence is a gap",
         {{B, 1, 1, 5, kApply}, {N, 1, 1, 7, Verdict::kGap}}},
        {"a generation change is a restart, on every frame type",
         {{B, 1, 1, 5, kApply}, {N, 2, 1, 5, Verdict::kRestart},
          {B, 2, 1, 9, Verdict::kRestart}, {P, 2, 0, 5, Verdict::kRestart}}},
        {"a notify on a link never backfilled is a restart",
         {{N, 1, 1, 1, Verdict::kRestart}}},
        {"a backfill from before the epoch bump is stale",
         {{B, 1, 1, 5, kApply}, {kDrop, 0, 0, 0, kApply},
          {B, 1, 1, 5, Verdict::kStaleEpoch}, {B, 1, 2, 8, kApply},
          {N, 1, 1, 7, Verdict::kDuplicate}, {N, 1, 1, 8, kApply}}},
        {"an established link ignores a backfill baseline",
         {{B, 1, 1, 5, kApply}, {N, 1, 1, 5, kApply}, {B, 1, 1, 9, kApply},
          {N, 1, 1, 6, kApply}, {B, 1, 1, 2, kApply}, {N, 1, 1, 7, kApply}}},
        {"a pong past the high-water mark exposes a lost tail",
         {{B, 1, 1, 5, kApply}, {P, 1, 0, 5, kApply}, {N, 1, 1, 5, kApply},
          {P, 1, 0, 6, kApply}, {P, 1, 0, 8, Verdict::kGap}}},
    };
    for (const Case& c : cases) {
        Subscriber sub(2, -1);
        for (size_t i = 0; i != c.steps.size(); ++i) {
            const Step& st = c.steps[i];
            if (st.type == kDrop) {
                sub.drop(0);
                continue;
            }
            net::Message m;
            m.type = st.type;
            m.gen = st.gen;
            m.epoch = st.epoch;
            m.seq = st.seq;
            Verdict got = sub.check(0, m);
            EXPECT_EQ(got, st.want)
                << c.name << ", step " << i << ": got "
                << verdict_name(got) << ", want " << verdict_name(st.want);
        }
    }
}

TEST(SubVerdict, LinksAreIndependentPerOwner) {
    Subscriber sub(2, -1);
    net::Message m;
    m.type = MsgType::kBackfill;
    m.gen = 1;
    m.epoch = 1;
    m.seq = 3;
    EXPECT_EQ(sub.check(0, m), Verdict::kApply);
    m.gen = 7;
    m.seq = 1;
    EXPECT_EQ(sub.check(1, m), Verdict::kApply);
    EXPECT_EQ(sub.next_seq(0), 3u);
    EXPECT_EQ(sub.next_seq(1), 1u);
    m.type = MsgType::kNotify;
    EXPECT_EQ(sub.check(0, m), Verdict::kRestart);  // gen 7 is owner 1's
    m.gen = 1;
    m.seq = 3;
    EXPECT_EQ(sub.check(0, m), Verdict::kApply);
}

// A Publisher with a batch limit of 2 feeding two subscribers (ids 0 and
// 1) with overlapping ranges: each put reaches each subscriber once,
// batches flush at the limit or on flush(), and every frame is stamped
// so the Subscriber on the other end applies the whole stream in step.
TEST(SubPublisher, StampsBatchesAndFeedsSubscribersInStep) {
    std::vector<std::pair<int, net::Message>> sent;
    Publisher pub(2, [&sent](int dest, const net::Message& m) {
        sent.emplace_back(dest, m);
    });
    std::map<std::string, std::string> rows;
    auto fill = [&rows](Str lo, Str hi) {
        return [&rows, lo, hi](Items& items) {
            for (const auto& kv : rows)
                if (Str(kv.first) >= lo && Str(kv.first) < hi)
                    items.emplace_back(kv.first, kv.second);
        };
    };
    rows["p|a|1"] = "old";
    pub.subscribe(0, "p|a|", "p|a}", 4, fill("p|a|", "p|a}"));
    pub.subscribe(0, "p|", "p}", 5, fill("p|", "p}"));  // overlaps
    pub.subscribe(1, "p|b|", "p|b}", 1, fill("p|b|", "p|b}"));
    pub.subscribe(1, "p|b|", "p|b}", 1, fill("p|b|", "p|b}"));  // again
    ASSERT_EQ(sent.size(), 4u);
    for (const auto& f : sent) {
        EXPECT_EQ(f.second.type, MsgType::kBackfill);
        EXPECT_EQ(f.second.seq, 1u);  // a baseline, not a consumed seq
    }
    EXPECT_EQ(sent[0].second.epoch, 4u);  // each echoes its own epoch
    EXPECT_EQ(sent[1].second.epoch, 5u);
    EXPECT_EQ(sent[0].second.items.size(), 1u);

    Subscriber sub0(1, -1), sub1(1, -1);
    auto deliver = [&](const std::pair<int, net::Message>& f) {
        Subscriber& s = f.first == 0 ? sub0 : sub1;
        EXPECT_EQ(s.check(0, f.second), Verdict::kApply)
            << "frame to " << f.first << " seq " << f.second.seq;
    };
    for (const auto& f : sent)
        deliver(f);
    sent.clear();

    pub.publish("p|a|2", "x");  // subscriber 0 only, via two ranges
    pub.publish("p|b|1", "y");  // both
    EXPECT_EQ(pub.pending(), 1u);  // 0's batch hit the limit and left
    ASSERT_EQ(sent.size(), 1u);
    EXPECT_EQ(sent[0].first, 0);
    EXPECT_EQ(sent[0].second.type, MsgType::kNotify);
    EXPECT_EQ(sent[0].second.seq, 1u);
    EXPECT_EQ(sent[0].second.epoch, 5u);  // newest epoch 0 used
    EXPECT_EQ(sent[0].second.items.size(), 2u);
    pub.publish("p|c|1", "z");  // subscriber 0 only
    pub.flush();
    EXPECT_EQ(pub.pending(), 0u);
    ASSERT_EQ(sent.size(), 3u);
    EXPECT_EQ(sent[1].first, 0);  // ascending subscriber order
    EXPECT_EQ(sent[1].second.seq, 2u);
    EXPECT_EQ(sent[2].first, 1);
    EXPECT_EQ(sent[2].second.seq, 1u);
    for (const auto& f : sent)
        deliver(f);
    EXPECT_EQ(sub0.next_seq(0), pub.next_seq(0));
    EXPECT_EQ(sub1.next_seq(0), pub.next_seq(1));

    // A pong reports the high-water mark: in step now, a gap if a
    // notify is lost.
    sent.clear();
    pub.pong(1);
    ASSERT_EQ(sent.size(), 1u);
    EXPECT_EQ(sub1.check(0, sent[0].second), Verdict::kApply);
    pub.publish("p|b|2", "lost");
    pub.flush();
    sent.clear();
    pub.pong(1);
    EXPECT_EQ(sub1.check(0, sent[0].second), Verdict::kGap);

    // A reset forgets every subscriber under a new generation.
    pub.reset(2);
    sent.clear();
    pub.publish("p|b|3", "gone");
    pub.flush();
    EXPECT_TRUE(sent.empty());
    pub.pong(1);
    EXPECT_EQ(sent[0].second.gen, 2u);
    EXPECT_EQ(sub1.check(0, sent[0].second), Verdict::kRestart);
}

// The routing rule: a range inside one closed routing group goes to its
// one owner; a wider one to every owner but the subscriber itself, and
// it counts as covered only if every leg succeeded.
TEST(SubSubscriber, FanOutRoutesByGroupAndCoversOnSuccess) {
    Subscriber sub(4, 2);
    std::vector<int> legs;
    auto record = [&legs](int owner) {
        legs.push_back(owner);
        return true;
    };
    std::string lo = "p|u1|";
    std::string hi = prefix_successor(lo);
    int owner = shard::shard_of(lo, 4);
    EXPECT_TRUE(sub.fan_out(lo, hi, record));
    if (owner == 2) {
        EXPECT_TRUE(legs.empty());  // our own group: nothing to do
        EXPECT_FALSE(sub.covers(lo, hi));
    } else {
        EXPECT_EQ(legs, std::vector<int>{owner});
        EXPECT_TRUE(sub.covers(lo, hi));
    }
    legs.clear();
    EXPECT_TRUE(sub.fan_out("p|", "p}", record));
    EXPECT_EQ(legs, (std::vector<int>{0, 1, 3}));
    EXPECT_TRUE(sub.covers("p|", "p}"));

    Subscriber partial(3, -1);
    legs.clear();
    EXPECT_FALSE(partial.fan_out("s|", "s}", [&legs](int o) {
        legs.push_back(o);
        return o != 1;
    }));
    EXPECT_EQ(legs, (std::vector<int>{0, 1, 2}));
    EXPECT_FALSE(partial.covers("s|", "s}"));
}

}  // namespace
}  // namespace sub
}  // namespace pequod
