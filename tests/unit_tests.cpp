// Unit tests for the cache-join engine: pattern grammar, interval map
// stabbing, the wire codec, store routing, and end-to-end join
// materialization / eager maintenance on a Server.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "apps/graph.hh"
#include "common/base.hh"
#include "common/interval_map.hh"
#include "common/rng.hh"
#include "common/str.hh"
#include "common/rangeset.hh"
#include "core/server.hh"
#include "join/join.hh"
#include "store/store.hh"

namespace pequod {
namespace {

TEST(Str, ComparisonAndOrdering) {
    EXPECT_EQ(Str("abc"), Str(std::string("abc")));
    EXPECT_NE(Str("abc"), Str("abd"));
    EXPECT_NE(Str("abc"), Str("ab"));
    EXPECT_LT(Str("ab"), Str("abc"));
    EXPECT_LT(Str("abb"), Str("abc"));
    EXPECT_GE(Str("abc"), Str("abc"));
    // Mixed comparisons work through implicit conversion, both ways.
    std::string s = "t|ann|";
    EXPECT_TRUE(s < Str("t|ann}"));
    EXPECT_TRUE(Str("t|ann|") == s);
    // Embedded NULs compare bytewise, like std::string.
    EXPECT_LT(Str("a", 1), Str("a\0", 2));
    EXPECT_EQ(Str().compare(Str("")), 0);
}

TEST(Str, PrefixHelpers) {
    Str key("t|ann|0000000100|bob");
    EXPECT_TRUE(key.starts_with("t|"));
    EXPECT_TRUE(key.starts_with("t|ann|"));
    EXPECT_FALSE(key.starts_with("t|bob"));
    EXPECT_TRUE(key.starts_with(""));
    EXPECT_FALSE(Str("t").starts_with("t|"));
    EXPECT_EQ(key.prefix(6), Str("t|ann|"));
    EXPECT_EQ(key.substr(2, 3), Str("ann"));
    EXPECT_EQ(key.substr(100, 5), Str(""));  // clamped, not UB
    EXPECT_TRUE(prefixes_overlap(Str("t|"), Str("t|ann|")));
    EXPECT_TRUE(prefixes_overlap(Str("t|ann|"), Str("t|")));
    EXPECT_FALSE(prefixes_overlap(Str("t|ann|"), Str("t|bob|")));
}

TEST(Str, ComponentSplit) {
    Str key("t|ann|0000000100|bob");
    EXPECT_EQ(key.find('|'), 1u);
    EXPECT_EQ(key.find('|', 2), 5u);
    EXPECT_EQ(key.find('z'), Str::npos);
    EXPECT_EQ(key.component(2), Str("ann"));
    EXPECT_EQ(key.component(6), Str("0000000100"));
    EXPECT_EQ(key.component(17), Str("bob"));  // last: runs to the end
    EXPECT_EQ(key.component(100), Str(""));
}

TEST(Str, HashAgreesWithEquality) {
    Str a("t|ann|0000000100");
    std::string b_backing = "t|ann|0000000100";
    EXPECT_EQ(a.hash(), Str(b_backing).hash());
    EXPECT_NE(Str("t|ann").hash(), Str("t|bob").hash());
    // The transparent functors used by the store's subtable index.
    EXPECT_EQ(StrHash()(a), StrHash()(b_backing));
    EXPECT_TRUE(StrEqual()(a, b_backing));
}

TEST(Str, OwnedSlotsOutliveTheMatchedKey) {
    // The dangling-safety convention: SlotSet slices share the matched
    // key's lifetime, so bindings kept past the match are copied into
    // OwnedSlots, whose view re-slices owned storage.
    SlotTable slots;
    Pattern p = Pattern::parse("t|<user>|<time:10>|<poster>", slots);
    OwnedSlots owned;
    {
        std::string key = "t|ann|0000000100|bob";
        SlotSet ss;
        ASSERT_TRUE(p.match(key, ss));
        owned.assign(ss);
        key.assign(key.size(), 'X');  // clobber the original backing
    }
    SlotSet view = owned.view();
    EXPECT_EQ(view[slots.find("user")], Str("ann"));
    EXPECT_EQ(view[slots.find("time")], Str("0000000100"));
    EXPECT_EQ(view[slots.find("poster")], Str("bob"));
    EXPECT_EQ(p.expand_str(view), "t|ann|0000000100|bob");
}

TEST(Str, KeyBufAppendsAndGrows) {
    KeyBuf buf;
    buf.append("t|");
    buf.append(std::string("ann"));
    buf.push_back('|');
    EXPECT_EQ(buf.view(), Str("t|ann|"));
    buf.clear();
    EXPECT_EQ(buf.size(), 0u);
    // Growth past the inline capacity keeps the contents intact.
    std::string big(KeyBuf::kInlineCapacity * 3, 'x');
    buf.append("head|");
    buf.append(big);
    EXPECT_EQ(buf.view(), Str("head|" + big));
}

TEST(Base, PadNumber) {
    EXPECT_EQ(pad_number(0, 4), "0000");
    EXPECT_EQ(pad_number(42, 6), "000042");
    EXPECT_EQ(pad_number(1234567, 4), "1234567");
}

TEST(Base, PrefixSuccessor) {
    EXPECT_EQ(prefix_successor("a"), "b");
    EXPECT_EQ(prefix_successor("t|ann|"), "t|ann}");
    EXPECT_EQ(prefix_successor(std::string("a\xff")), "b");
    EXPECT_EQ(prefix_successor(std::string("\xff")), "");
    EXPECT_LT(std::string("t|ann|zzz"), prefix_successor("t|ann|"));
}

TEST(Pattern, ParseMatchRoundTrip) {
    SlotTable slots;
    Pattern p = Pattern::parse("t|<user>|<time:10>|<poster>", slots);
    EXPECT_EQ(p.table_prefix(), "t|");
    SlotSet ss;
    ASSERT_TRUE(p.match("t|ann|0000000100|bob", ss));
    EXPECT_EQ(ss[slots.find("user")], "ann");
    EXPECT_EQ(ss[slots.find("time")], "0000000100");
    EXPECT_EQ(ss[slots.find("poster")], "bob");
    EXPECT_EQ(p.expand_str(ss), "t|ann|0000000100|bob");
}

TEST(Pattern, WidthMismatchRejected) {
    SlotTable slots;
    Pattern p = Pattern::parse("t|<user>|<time:10>|<poster>", slots);
    SlotSet ss;
    // The time component is 3 bytes, not 10.
    EXPECT_FALSE(p.match("t|ann|100|bob", ss));
    SlotSet ss2;
    // Too short overall.
    EXPECT_FALSE(p.match("t|ann|0000000100", ss2));
    SlotSet ss3;
    // Wrong table literal.
    EXPECT_FALSE(p.match("x|ann|0000000100|bob", ss3));
}

TEST(Pattern, BoundSlotMustAgree) {
    SlotTable slots;
    Pattern p = Pattern::parse("s|<u>|<p>", slots);
    SlotSet ss;
    ss.bind(slots.find_or_create("u"), "ann");
    EXPECT_TRUE(p.match("s|ann|bob", ss));
    SlotSet ss2;
    ss2.bind(slots.find("u"), "eve");
    EXPECT_FALSE(p.match("s|ann|bob", ss2));
}

TEST(Pattern, ParseErrors) {
    SlotTable slots;
    EXPECT_THROW(Pattern::parse("t|<user", slots), std::runtime_error);
    EXPECT_THROW(Pattern::parse("t|<u:x>", slots), std::runtime_error);
    EXPECT_THROW(Pattern::parse("t|<>", slots), std::runtime_error);
}

TEST(Pattern, DeriveSlotSet) {
    SlotTable slots;
    Pattern p = Pattern::parse("t|<user>|<time:10>|<poster>", slots);
    SlotSet ss = p.derive_slot_set("t|ann|0000000100", "t|ann}");
    EXPECT_TRUE(ss.has(slots.find("user")));
    EXPECT_EQ(ss[slots.find("user")], "ann");
    EXPECT_FALSE(ss.has(slots.find("time")));
    EXPECT_FALSE(ss.has(slots.find("poster")));
    // Whole-table scan binds nothing.
    SlotSet ss2 = p.derive_slot_set("t|", "t}");
    EXPECT_EQ(ss2.mask(), 0u);
    // An empty hi means +infinity: no prefix of lo is constant, so
    // nothing may be bound.
    SlotSet ss3 = p.derive_slot_set("t|ann|0000000100", "");
    EXPECT_EQ(ss3.mask(), 0u);
}

TEST(Pattern, BindRejectsBadSlot) {
    SlotTable slots;
    SlotSet ss;
    // SlotTable::find on an unknown name returns -1; bind must reject it
    // rather than write out of bounds.
    EXPECT_THROW(ss.bind(slots.find("missing"), "x"), std::out_of_range);
    EXPECT_THROW(ss.bind(kMaxSlots, "x"), std::out_of_range);
}

TEST(Pattern, ContainingRange) {
    SlotTable slots;
    Pattern src = Pattern::parse("p|<poster>|<time:10>", slots);
    SlotSet ss;
    ss.bind(slots.find("poster"), "bob");
    KeyRange r = src.containing_range(ss);
    EXPECT_EQ(r.lo, "p|bob|");
    EXPECT_EQ(r.hi, "p|bob}");
    ss.bind(slots.find_or_create("time"), "0000000001");
    KeyRange r2 = src.containing_range(ss);
    EXPECT_EQ(r2.lo, "p|bob|0000000001");
    EXPECT_LT(r2.lo, r2.hi);
    EXPECT_LT(r2.hi, "p|bob|0000000001a");
}

TEST(Join, ParseSpec) {
    Join j;
    j.parse("t|<u>|<ts:10>|<p> = check s|<u>|<p> copy p|<p>|<ts:10>");
    EXPECT_TRUE(j.maintained());
    EXPECT_EQ(j.nsource(), 2);
    EXPECT_EQ(j.source_op(0), SourceOp::kCheck);
    EXPECT_EQ(j.source_op(1), SourceOp::kCopy);
    EXPECT_EQ(j.sink().table_prefix(), "t|");

    Join pull;
    pull.parse("t|<u>|<ts:10>|<p> = pull check s|<u>|<p> copy p|<p>|<ts:10>");
    EXPECT_FALSE(pull.maintained());
}

TEST(Join, ParseErrors) {
    Join j;
    EXPECT_THROW(j.parse("nonsense"), std::runtime_error);
    Join j2;
    EXPECT_THROW(j2.parse("t|<u> = bogus s|<u>"), std::runtime_error);
    Join j3;
    // Sink slot <x> is not bound by any source.
    EXPECT_THROW(j3.parse("t|<u>|<x> = check s|<u>"), std::runtime_error);
    Join j4;
    // A check after a copy would override the copied value.
    EXPECT_THROW(
        j4.parse("d|<u>|<p> = copy v|<p>|<u> check s|<u>|<p>"),
        std::runtime_error);
}

TEST(IntervalMap, StabBoundaries) {
    IntervalMap<int> map;
    map.insert("b", "d", 1);
    int hits = 0;
    std::vector<int> seen;
    auto count = [&](const int& v) {
        ++hits;
        seen.push_back(v);
    };
    map.stab("a", count);
    EXPECT_EQ(hits, 0);  // below lo
    map.stab("b", count);
    EXPECT_EQ(hits, 1);  // lo is inclusive
    map.stab("c", count);
    EXPECT_EQ(hits, 2);
    map.stab("d", count);
    EXPECT_EQ(hits, 2);  // hi is exclusive
    map.stab("cz", count);
    EXPECT_EQ(hits, 3);
}

TEST(IntervalMap, OverlapsAndInfinity) {
    IntervalMap<int> map;
    map.insert("b", "d", 1);
    map.insert("b", "d", 2);  // duplicate range
    map.insert("a", "z", 3);
    map.insert("c", "", 4);  // empty hi == +infinity
    std::vector<int> seen;
    map.stab("c", [&](const int& v) { seen.push_back(v); });
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, (std::vector<int>{1, 2, 3, 4}));
    seen.clear();
    map.stab("zzzz", [&](const int& v) { seen.push_back(v); });
    EXPECT_EQ(seen, (std::vector<int>{4}));
}

TEST(IntervalMap, MatchesBruteForce) {
    IntervalMap<int> map;
    std::vector<std::pair<std::string, std::string>> intervals;
    Rng rng(7);
    for (int i = 0; i < 400; ++i) {
        std::string lo = "k|" + pad_number(rng.below(500), 4);
        std::string hi = "k|" + pad_number(rng.below(500) + 500, 4);
        map.insert(lo, hi, i);
        intervals.emplace_back(lo, hi);
    }
    for (int probe = 0; probe < 200; ++probe) {
        std::string key = "k|" + pad_number(rng.below(1100), 4);
        std::vector<int> got;
        map.stab(key, [&](const int& v) { got.push_back(v); });
        std::vector<int> want;
        for (int i = 0; i < 400; ++i)
            if (intervals[i].first <= key && key < intervals[i].second)
                want.push_back(i);
        std::sort(got.begin(), got.end());
        ASSERT_EQ(got, want) << "key " << key;
    }
}

TEST(RangeSet, CoversAndCoalesces) {
    RangeSet rs;
    EXPECT_FALSE(rs.covers("a", "b"));
    rs.add("b", "d");
    EXPECT_TRUE(rs.covers("b", "d"));
    EXPECT_TRUE(rs.covers("b", "c"));
    EXPECT_FALSE(rs.covers("a", "c"));
    EXPECT_FALSE(rs.covers("c", "e"));
    rs.add("d", "f");  // adjacent: must coalesce
    EXPECT_EQ(rs.size(), 1u);
    EXPECT_TRUE(rs.covers("b", "f"));
    rs.add("m", "");  // empty hi == +infinity
    EXPECT_TRUE(rs.covers("zzz", ""));
    rs.add("a", "z");  // swallows both
    EXPECT_EQ(rs.size(), 1u);
    EXPECT_TRUE(rs.covers("a", ""));
}

TEST(RangeSet, SubtractTrimsSplitsAndSwallows) {
    RangeSet rs;
    rs.add("b", "f");
    // Subtracting the middle splits the range in two.
    rs.subtract("c", "d");
    EXPECT_EQ(rs.size(), 2u);
    EXPECT_TRUE(rs.covers("b", "c"));
    EXPECT_TRUE(rs.covers("d", "f"));
    EXPECT_FALSE(rs.covers("c", "d"));
    EXPECT_FALSE(rs.covers("b", "f"));
    // Partial overlap trims each edge without touching the remainder.
    rs.subtract("a", "bb");
    EXPECT_FALSE(rs.covers("b", "bb"));
    EXPECT_TRUE(rs.covers("bb", "c"));
    rs.subtract("e", "g");
    EXPECT_TRUE(rs.covers("d", "e"));
    EXPECT_FALSE(rs.covers("e", "f"));
    // Subtracting the exact stored range removes it entirely.
    rs.subtract("bb", "c");
    EXPECT_FALSE(rs.covers("bb", "c"));
    rs.subtract("d", "e");
    EXPECT_TRUE(rs.empty());
}

TEST(RangeSet, SubtractEdgesAreHalfOpen) {
    RangeSet rs;
    rs.add("b", "d");
    rs.add("e", "g");
    // [d, e) touches both stored ranges only at their bounds: no change.
    rs.subtract("d", "e");
    EXPECT_EQ(rs.size(), 2u);
    EXPECT_TRUE(rs.covers("b", "d"));
    EXPECT_TRUE(rs.covers("e", "g"));
    // An empty removal is a no-op.
    rs.subtract("c", "c");
    rs.subtract("d", "c");
    EXPECT_TRUE(rs.covers("b", "d"));
    // Subtract-to-infinity clips everything from lo up.
    rs.subtract("c", "");
    EXPECT_TRUE(rs.covers("b", "c"));
    EXPECT_FALSE(rs.covers("e", "g"));
    EXPECT_EQ(rs.size(), 1u);
}

TEST(RangeSet, SubtractFromInfiniteRange) {
    RangeSet rs;
    rs.add("m", "");  // +infinity
    rs.subtract("p", "q");
    EXPECT_TRUE(rs.covers("m", "p"));
    EXPECT_FALSE(rs.covers("p", "q"));
    EXPECT_TRUE(rs.covers("q", ""));  // the upper piece stays infinite
    rs.subtract("q", "");
    EXPECT_TRUE(rs.covers("m", "p"));
    EXPECT_FALSE(rs.covers("q", ""));
    EXPECT_EQ(rs.size(), 1u);
}

TEST(RangeSet, SubtractMatchesBruteForce) {
    // Model the set as per-integer membership over a small universe and
    // check add/subtract against it, including infinite upper bounds.
    Rng rng(42);
    RangeSet rs;
    std::vector<bool> member(201, false);  // index 200 == "infinity band"
    auto key = [](int i) { return pad_number(i, 3); };
    for (int step = 0; step < 400; ++step) {
        int a = static_cast<int>(rng.below(200));
        int b = static_cast<int>(rng.below(201));
        bool infinite = b == 200;
        std::string lo = key(a);
        std::string hi = infinite ? std::string() : key(b);
        if (!infinite && b <= a)
            std::swap(a, b), std::swap(lo, hi);
        if (rng.below(2)) {
            rs.add(lo, hi);
            for (int i = a; i < (infinite ? 201 : b); ++i)
                member[static_cast<size_t>(i)] = true;
        } else {
            rs.subtract(lo, hi);
            for (int i = a; i < (infinite ? 201 : b); ++i)
                member[static_cast<size_t>(i)] = false;
        }
        for (int i = 0; i < 200; ++i) {
            bool want = member[static_cast<size_t>(i)];
            ASSERT_EQ(rs.covers(key(i), key(i + 1)), want)
                << "step " << step << " unit " << i;
        }
        ASSERT_EQ(rs.covers(key(200), ""), member[200]) << "step " << step;
    }
}

TEST(IntervalMap, EraseOverlapping) {
    IntervalMap<int> map;
    map.insert("b", "d", 1);
    map.insert("c", "f", 2);
    map.insert("f", "h", 3);
    map.insert("a", "", 4);  // infinite
    std::vector<int> removed;
    auto grab = [&](const int& v) { removed.push_back(v); };
    // [d, e) overlaps 2 and 4 only: 1 ends at d (exclusive), 3 starts
    // at f.
    EXPECT_EQ(map.erase_overlapping("d", "e", grab), 2u);
    std::sort(removed.begin(), removed.end());
    EXPECT_EQ(removed, (std::vector<int>{2, 4}));
    EXPECT_EQ(map.size(), 2u);
    // The survivors still stab correctly.
    removed.clear();
    map.stab("c", grab);
    EXPECT_EQ(removed, (std::vector<int>{1}));
    removed.clear();
    // Erase-to-infinity clears the rest.
    EXPECT_EQ(map.erase_overlapping("a", "", grab), 2u);
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.erase_overlapping("a", "", grab), 0u);
}

TEST(IntervalMap, EraseOverlappingMatchesBruteForce) {
    IntervalMap<int> map;
    std::map<int, std::pair<std::string, std::string>> intervals;
    Rng rng(11);
    int next_id = 0;
    for (int round = 0; round < 60; ++round) {
        for (int i = 0; i < 20; ++i) {
            std::string lo = "k|" + pad_number(rng.below(300), 4);
            std::string hi = rng.below(10) == 0
                ? std::string()
                : "k|" + pad_number(rng.below(300) + 300, 4);
            map.insert(lo, hi, next_id);
            intervals.emplace(next_id, std::make_pair(lo, hi));
            ++next_id;
        }
        std::string elo = "k|" + pad_number(rng.below(600), 4);
        std::string ehi = rng.below(10) == 0
            ? std::string()
            : "k|" + pad_number(rng.below(600), 4);
        std::vector<int> got;
        map.erase_overlapping(elo, ehi,
                              [&](const int& v) { got.push_back(v); });
        std::vector<int> want;
        for (const auto& [id, r] : intervals) {
            bool below_hi = ehi.empty() || r.first < ehi;
            bool above_lo = r.second.empty() || r.second > elo;
            if (below_hi && above_lo)
                want.push_back(id);
        }
        std::sort(got.begin(), got.end());
        ASSERT_EQ(got, want) << "round " << round;
        for (int id : want)
            intervals.erase(id);
        ASSERT_EQ(map.size(), intervals.size());
        // Survivors must still stab exactly like the model.
        std::string probe = "k|" + pad_number(rng.below(600), 4);
        std::vector<int> stabbed;
        map.stab(probe, [&](const int& v) { stabbed.push_back(v); });
        std::vector<int> expect;
        for (const auto& [id, r] : intervals)
            if (r.first <= probe && (r.second.empty() || probe < r.second))
                expect.push_back(id);
        std::sort(stabbed.begin(), stabbed.end());
        ASSERT_EQ(stabbed, expect) << "round " << round;
    }
}

std::vector<std::string> scan_keys(Store& store, const std::string& lo,
                                   const std::string& hi) {
    std::vector<std::string> keys;
    store.scan(lo, hi, [&](const std::string& k, const Entry&) {
        keys.push_back(k);
    });
    return keys;
}

TEST(Store, PutGetScan) {
    Store store;
    store.put("b", "2");
    store.put("a", "1");
    store.put("c", "3");
    ASSERT_NE(store.get_ptr("b"), nullptr);
    EXPECT_EQ(store.get_ptr("b")->value(), "2");
    EXPECT_EQ(store.get_ptr("zzz"), nullptr);
    EXPECT_EQ(scan_keys(store, "a", "c"),
              (std::vector<std::string>{"a", "b"}));
    store.put("b", "override");
    EXPECT_EQ(store.get_ptr("b")->value(), "override");
    EXPECT_EQ(store.size(), 3u);
}

TEST(Store, SubtableRoutingMatchesFlat) {
    // Identical contents must scan identically with and without
    // subtables, including scans that cross group boundaries.
    Store flat(false);
    Store grouped(true);
    grouped.set_subtable_components("t|", 1);
    Rng rng(3);
    for (int i = 0; i < 2000; ++i) {
        std::string key = "t|" + pad_number(rng.below(37), 4) + "|"
            + pad_number(static_cast<uint64_t>(i), 8);
        flat.put(key, "v");
        grouped.put(key, "v");
    }
    flat.put("s|other|key", "v");
    grouped.put("s|other|key", "v");
    EXPECT_EQ(scan_keys(flat, "", ""), scan_keys(grouped, "", ""));
    EXPECT_EQ(scan_keys(flat, "t|0003", "t|0009"),
              scan_keys(grouped, "t|0003", "t|0009"));
    EXPECT_EQ(scan_keys(flat, "t|0010|", "t|0010}"),
              scan_keys(grouped, "t|0010|", "t|0010}"));
    EXPECT_EQ(grouped.get_ptr("s|other|key")->value(), "v");
    EXPECT_GT(grouped.memory_stats().subtable_count, 0u);
    EXPECT_GT(grouped.memory_stats().total(),
              flat.memory_stats().total());
}

TEST(Store, HintedPutsMatchPlainPuts) {
    Store plain(true);
    plain.set_subtable_components("t|", 1);
    Store hinted(true);
    hinted.set_subtable_components("t|", 1);
    Store::Hint hint;
    for (int i = 0; i < 500; ++i) {
        std::string key = "t|user42|" + pad_number(static_cast<uint64_t>(i), 8);
        plain.put(key, "v");
        hinted.put(key, "v", &hint);
    }
    // A key outside the hinted group must still route correctly.
    hinted.put("t|other|00000001", "w", &hint);
    plain.put("t|other|00000001", "w");
    EXPECT_EQ(scan_keys(plain, "t|", "t}"), scan_keys(hinted, "t|", "t}"));
}

TEST(Store, EraseRange) {
    Store store(true);
    store.set_subtable_components("t|", 1);
    for (int u = 0; u < 3; ++u)
        for (int i = 0; i < 4; ++i)
            store.put("t|" + pad_number(static_cast<uint64_t>(u), 4) + "|"
                          + pad_number(static_cast<uint64_t>(i), 8),
                      "v");
    store.put("a|solo", "v");
    size_t total_before = store.memory_stats().total();
    EXPECT_EQ(store.erase_range("t|0001|", "t|0001}"), 4u);
    EXPECT_EQ(store.size(), 9u);
    EXPECT_EQ(store.get_ptr("t|0001|00000000"), nullptr);
    ASSERT_NE(store.get_ptr("t|0000|00000000"), nullptr);
    EXPECT_LT(store.memory_stats().total(), total_before);
    // A cross-group erase touching the main tree and several subtables.
    EXPECT_EQ(store.erase_range("", ""), 9u);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(scan_keys(store, "", ""), std::vector<std::string>{});
    // The store stays usable after a full erase.
    store.put("t|0000|00000000", "again");
    EXPECT_EQ(scan_keys(store, "", ""),
              (std::vector<std::string>{"t|0000|00000000"}));
}

TEST(Store, HintCannotMisrouteAcrossGroups) {
    Store store(true);
    store.set_subtable_components("t|", 1);
    Store::Hint hint;
    // "t|ann" is a short-key singleton group; a longer key sharing that
    // byte prefix belongs to group "t|ann|" and must not follow the hint.
    store.put("t|ann", "short", &hint);
    store.put("t|ann|00000001", "long", &hint);
    ASSERT_NE(store.get_ptr("t|ann|00000001"), nullptr);
    EXPECT_EQ(store.get_ptr("t|ann|00000001")->value(), "long");
    ASSERT_NE(store.get_ptr("t|ann"), nullptr);
    EXPECT_EQ(store.get_ptr("t|ann")->value(), "short");
    EXPECT_EQ(scan_keys(store, "t|", "t}"),
              (std::vector<std::string>{"t|ann", "t|ann|00000001"}));
}

TEST(Store, ShortKeyGroupEndingInSeparatorIsNotFull) {
    // With two grouped components, "t|a|" is a one-key group even though
    // it ends in '|': a hint from it must not route "t|a|b|1" there, and
    // it is never a confined group.
    Store store(true);
    store.set_subtable_components("t|", 2);
    Store::Hint hint;
    store.put("t|a|", "short", &hint);
    store.put("t|a|b|1", "long", &hint);
    store.verify();
    ASSERT_NE(store.get_ptr("t|a|b|1"), nullptr);
    EXPECT_EQ(store.get_ptr("t|a|b|1")->value(), "long");
    EXPECT_EQ(store.confined_group("t|a|", "t|a}"), nullptr);
    ASSERT_NE(store.confined_group("t|a|b|", "t|a|b}"), nullptr);
}

TEST(Store, ConfinedGroupNeedsOneWholeGroupBlock) {
    Store store(true);
    store.set_subtable_components("t|", 1);
    store.put("t|ann|1", "a");
    store.put("t|bob|1", "b");
    store.put("t|cat", "short");
    const Store::Subtable* ann = store.confined_group("t|ann|", "t|ann}");
    ASSERT_NE(ann, nullptr);
    EXPECT_EQ(*ann->prefix, "t|ann|");
    EXPECT_TRUE(Store::is_block(*ann, "t|ann|", "t|ann}"));
    EXPECT_FALSE(Store::is_block(*ann, "t|ann|0", "t|ann}"));
    EXPECT_EQ(store.confined_group("t|ann|0", "t|ann|5"), ann);
    EXPECT_EQ(store.confined_group("t|ann|0", "t|ann}"), ann);
    // Past the block's end, infinite, spanning, short-key, unrouted,
    // and not-yet-created groups all decline.
    EXPECT_EQ(store.confined_group("t|ann|", "t|ann}0"), nullptr);
    EXPECT_EQ(store.confined_group("t|ann|", ""), nullptr);
    EXPECT_EQ(store.confined_group("t|ann|", "t|bob|2"), nullptr);
    EXPECT_EQ(store.confined_group("t|ann", "t|ann}"), nullptr);
    EXPECT_EQ(store.confined_group("t|cat", "t|cat}"), nullptr);
    EXPECT_EQ(store.confined_group("u|ann|", "u|ann}"), nullptr);
    EXPECT_EQ(store.confined_group("t|dan|", "t|dan}"), nullptr);
    std::vector<std::string> keys;
    Store::scan_group(*ann, "t|ann|", "t|ann}",
                      [&](const std::string& k, const Entry&) {
                          keys.push_back(k);
                      });
    EXPECT_EQ(keys, std::vector<std::string>{"t|ann|1"});
    // Subtables off: nothing is ever confined.
    Store flat(false);
    flat.set_subtable_components("t|", 1);
    flat.put("t|ann|1", "a");
    EXPECT_EQ(flat.confined_group("t|ann|", "t|ann}"), nullptr);
}

TEST(Store, EraseRangeClearsMarksOfBlocksItMeets) {
    Store store(true);
    store.set_subtable_components("t|", 1);
    for (const char* u : {"ann", "bob", "cat"})
        store.put(std::string("t|") + u + "|1", "v");
    store.for_each_group([](Store::Subtable& sub) { sub.materialized = true; });
    // Ends exactly at bob's block: ann and bob lose their marks, cat not.
    store.erase_range("t|ann|5", "t|bob}");
    std::vector<std::string> marked;
    store.for_each_group([&](const Store::Subtable& sub) {
        if (sub.materialized)
            marked.push_back(*sub.prefix);
    });
    EXPECT_EQ(marked, std::vector<std::string>{"t|cat|"});
}

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

TEST(Server, MaterializesJoinOutputOnScan) {
    Server server;
    server.add_join(kTimelineJoin);
    server.put("s|ann|bob", "1");
    server.put("s|ann|eve", "1");
    server.put("p|bob|0000000001", "hi from bob");
    server.put("p|eve|0000000002", "hi from eve");
    server.put("p|zed|0000000003", "not followed");
    auto keys = timeline(server, "ann");
    EXPECT_EQ(keys, (std::vector<std::string>{"t|ann|0000000001|bob",
                                              "t|ann|0000000002|eve"}));
    // The copied value comes from the copy source.
    std::vector<std::string> values;
    server.scan("t|ann|", "t|ann}",
                [&](const std::string&, const ValuePtr& v) {
                    values.push_back(*v);
                });
    EXPECT_EQ(values, (std::vector<std::string>{"hi from bob",
                                                "hi from eve"}));
    EXPECT_EQ(server.materialization_count(), 1u);
    // A second scan is served from the materialized range.
    timeline(server, "ann");
    EXPECT_EQ(server.materialization_count(), 1u);
}

TEST(Server, EagerUpdateAfterMaterialization) {
    Server server;
    server.add_join(kTimelineJoin);
    server.put("s|ann|bob", "1");
    server.put("p|bob|0000000001", "old post");
    ASSERT_EQ(timeline(server, "ann").size(), 1u);
    // A post AFTER materialization must appear without recomputation.
    server.put("p|bob|0000000002", "fresh post");
    auto keys = timeline(server, "ann");
    EXPECT_EQ(keys, (std::vector<std::string>{"t|ann|0000000001|bob",
                                              "t|ann|0000000002|bob"}));
    EXPECT_EQ(server.materialization_count(), 1u);
    EXPECT_GE(server.eager_update_count(), 1u);
    // Posts by unfollowed users do not leak in.
    server.put("p|zed|0000000003", "stranger");
    EXPECT_EQ(timeline(server, "ann").size(), 2u);
}

TEST(Server, NewSubscriptionBackfillsAndMaintains) {
    Server server;
    server.add_join(kTimelineJoin);
    server.put("s|ann|bob", "1");
    server.put("p|bob|0000000001", "bob 1");
    server.put("p|eve|0000000002", "eve pre-follow");
    ASSERT_EQ(timeline(server, "ann").size(), 1u);
    // Following eve after materialization backfills her existing posts...
    server.put("s|ann|eve", "1");
    EXPECT_EQ(timeline(server, "ann").size(), 2u);
    // ...and her future posts are eagerly maintained too.
    server.put("p|eve|0000000003", "eve post-follow");
    EXPECT_EQ(timeline(server, "ann").size(), 3u);
}

TEST(Server, PullJoinRecomputesEveryScan) {
    Server server;
    server.add_join(
        "t|<u>|<ts:10>|<p> = pull check s|<u>|<p> copy p|<p>|<ts:10>");
    server.put("s|ann|bob", "1");
    server.put("p|bob|0000000001", "one");
    EXPECT_EQ(timeline(server, "ann").size(), 1u);
    server.put("p|bob|0000000002", "two");
    EXPECT_EQ(timeline(server, "ann").size(), 2u);
    // Nothing is materialized or maintained.
    EXPECT_EQ(server.materialization_count(), 0u);
    EXPECT_EQ(server.updater_count(), 0u);
    EXPECT_EQ(server.get_ptr("t|ann|0000000001|bob"), nullptr);
}

TEST(Server, SubrangeScanAfterMaterialization) {
    Server server;
    server.add_join(kTimelineJoin);
    server.put("s|ann|bob", "1");
    for (int i = 1; i <= 5; ++i)
        server.put("p|bob|" + pad_number(static_cast<uint64_t>(i), 10), "x");
    ASSERT_EQ(timeline(server, "ann").size(), 5u);
    // An incremental check (scan from a midpoint) reuses the valid range.
    size_t n = 0;
    server.scan("t|ann|0000000004", "t|ann}",
                [&](const std::string&, const ValuePtr&) { ++n; });
    EXPECT_EQ(n, 2u);
    EXPECT_EQ(server.materialization_count(), 1u);
}

TEST(Server, ConfigurationsAgree) {
    // Subtables and output hints are pure optimizations: every
    // combination must produce identical timelines.
    std::vector<std::string> reference;
    for (bool subtables : {true, false})
        for (bool hints : {true, false}) {
            ServerConfig cfg;
            cfg.store.enable_subtables = subtables;
            cfg.enable_output_hints = hints;
            Server server(cfg);
            server.set_subtable_components("t|", 1);
            server.add_join(kTimelineJoin);
            Rng rng(11);
            auto u = [](uint64_t x) { return pad_number(x, 4); };
            for (int f = 0; f < 30; ++f)
                for (int k = 0; k < 4; ++k)
                    server.put("s|" + u(f) + "|" + u(rng.below(30)), "1");
            uint64_t now = 1;
            for (int i = 0; i < 100; ++i)
                server.put("p|" + u(rng.below(30)) + "|"
                               + pad_number(now++, 10),
                           "tweet");
            // Materialize half the users, then keep posting.
            for (int f = 0; f < 30; f += 2)
                timeline(server, u(f));
            for (int i = 0; i < 100; ++i)
                server.put("p|" + u(rng.below(30)) + "|"
                               + pad_number(now++, 10),
                           "tweet");
            std::vector<std::string> all;
            for (int f = 0; f < 30; ++f)
                for (const auto& k : timeline(server, u(f)))
                    all.push_back(k);
            if (reference.empty())
                reference = all;
            else
                EXPECT_EQ(all, reference)
                    << "subtables=" << subtables << " hints=" << hints;
        }
    EXPECT_FALSE(reference.empty());
}

TEST(Server, ChainedJoinStaysFresh) {
    // A join consuming another join's sink: sink emission routes through
    // the unified write path and stabs the sink table's updaters, so the
    // downstream join is maintained exactly like one over client puts.
    // (The pre-refactor engine rejected this spec outright.)
    Server server;
    server.add_join(kTimelineJoin);
    server.add_join("z|<u>|<ts:10>|<p> = copy t|<u>|<ts:10>|<p>");
    server.put("s|ann|bob", "1");
    server.put("p|bob|0000000001", "one");
    // Scanning z materializes z from t, first freshening t itself.
    std::vector<std::string> keys;
    server.scan("z|ann|", "z|ann}",
                [&](const std::string& k, const ValuePtr&) {
                    keys.push_back(k);
                });
    EXPECT_EQ(keys, (std::vector<std::string>{"z|ann|0000000001|bob"}));
    EXPECT_EQ(server.materialization_count(), 2u);
    // A source put must propagate through BOTH joins eagerly: the t write
    // is derived, and it alone must keep z fresh.
    server.put("p|bob|0000000002", "two");
    keys.clear();
    server.scan("z|ann|", "z|ann}",
                [&](const std::string& k, const ValuePtr& v) {
                    keys.push_back(k + "=" + *v);
                });
    EXPECT_EQ(keys, (std::vector<std::string>{
                        "z|ann|0000000001|bob=one",
                        "z|ann|0000000002|bob=two"}));
    // Served from the materialized ranges, not recomputed.
    EXPECT_EQ(server.materialization_count(), 2u);
    // New subscriptions backfill through the chain too.
    server.put("s|ann|eve", "1");
    server.put("p|eve|0000000003", "three");
    EXPECT_EQ(timeline(server, "ann").size(), 3u);
    keys.clear();
    server.scan("z|ann|", "z|ann}",
                [&](const std::string& k, const ValuePtr&) {
                    keys.push_back(k);
                });
    EXPECT_EQ(keys.size(), 3u);
}

TEST(Server, ChainedJoinFilteredAndScannedFirst) {
    // The chain works regardless of scan order: materialize the
    // downstream sink before the upstream one has ever been scanned, and
    // filter through a check source on the chained table.
    Server server;
    server.add_join(kTimelineJoin);
    server.add_join(
        "d|<p>|<ts:10> = check f|<p> copy t|ann|<ts:10>|<p>");
    server.put("s|ann|bob", "1");
    server.put("s|ann|eve", "1");
    server.put("f|bob", "1");  // only bob's posts reach d|
    server.put("p|bob|0000000001", "b1");
    server.put("p|eve|0000000002", "e1");
    std::vector<std::string> keys;
    server.scan("d|", "d}", [&](const std::string& k, const ValuePtr&) {
        keys.push_back(k);
    });
    EXPECT_EQ(keys, (std::vector<std::string>{"d|bob|0000000001"}));
    server.put("p|bob|0000000003", "b2");
    server.put("p|eve|0000000004", "e2");
    keys.clear();
    server.scan("d|", "d}", [&](const std::string& k, const ValuePtr&) {
        keys.push_back(k);
    });
    EXPECT_EQ(keys, (std::vector<std::string>{"d|bob|0000000001",
                                              "d|bob|0000000003"}));
}

TEST(Server, OverlapAndCycleSpecsRejected) {
    // Two joins may not own overlapping sink tables.
    Server server;
    server.add_join(kTimelineJoin);
    EXPECT_THROW(server.add_join("t|<u>|<p> = copy s|<u>|<p>"),
                 std::runtime_error);
    // A self-cycle (source overlapping the join's own sink)...
    Server server2;
    EXPECT_THROW(
        server2.add_join("t|<u>|<ts:10> = copy t|x|<u>|<ts:10>"),
        std::runtime_error);
    // ...and a two-join cycle are non-terminating: rejected.
    Server server3;
    server3.add_join("a|<x> = copy b|<x>");
    EXPECT_THROW(server3.add_join("b|<x> = copy a|<x>"),
                 std::runtime_error);
    // A pull sink is never stored, so no join can read it.
    Server server4;
    server4.add_join(
        "t|<u>|<ts:10>|<p> = pull check s|<u>|<p> copy p|<p>|<ts:10>");
    EXPECT_THROW(
        server4.add_join("z|<u>|<ts:10>|<p> = copy t|<u>|<ts:10>|<p>"),
        std::runtime_error);
}

TEST(Server, PullJoinMayReadMaintainedSink) {
    // The reverse direction is fine: a pull join recomputing from a
    // maintained sink freshens the upstream on every recomputation.
    Server server;
    server.add_join(kTimelineJoin);
    server.add_join("z|<u>|<ts:10>|<p> = pull copy t|<u>|<ts:10>|<p>");
    server.put("s|ann|bob", "1");
    server.put("p|bob|0000000001", "one");
    size_t n = 0;
    server.scan("z|ann|", "z|ann}",
                [&](const std::string&, const ValuePtr&) { ++n; });
    EXPECT_EQ(n, 1u);
    server.put("p|bob|0000000002", "two");
    n = 0;
    server.scan("z|ann|", "z|ann}",
                [&](const std::string&, const ValuePtr&) { ++n; });
    EXPECT_EQ(n, 2u);
}

TEST(Server, ScanSpanningTwoSinkTables) {
    Server server;
    server.add_join("c|<u>|<ts:10>|<p> = check q|<u>|<p> copy r|<p>|<ts:10>");
    server.add_join(kTimelineJoin);
    server.put("q|ann|bob", "1");
    server.put("r|bob|0000000001", "r-val");
    server.put("s|ann|bob", "1");
    server.put("p|bob|0000000002", "p-val");
    // A scan covering both sink tables must materialize both joins.
    std::vector<std::string> keys;
    server.scan("c|", "u", [&](const std::string& k, const ValuePtr&) {
        keys.push_back(k);
    });
    EXPECT_EQ(keys, (std::vector<std::string>{
                        "c|ann|0000000001|bob", "p|bob|0000000002",
                        "q|ann|bob", "r|bob|0000000001", "s|ann|bob",
                        "t|ann|0000000002|bob"}));
}

TEST(Server, RepeatedSubscriptionPutDoesNotDuplicateUpdaters) {
    Server server;
    server.add_join(kTimelineJoin);
    server.put("s|ann|bob", "1");
    server.put("p|bob|0000000001", "one");
    ASSERT_EQ(timeline(server, "ann").size(), 1u);
    size_t updaters = server.updater_count();
    // Re-following (overwriting the same subscription key) must not
    // install duplicate updaters or duplicate the eager fan-out.
    for (int i = 0; i < 5; ++i)
        server.put("s|ann|bob", "1");
    EXPECT_EQ(server.updater_count(), updaters);
    uint64_t eager_before = server.eager_update_count();
    server.put("p|bob|0000000002", "two");
    EXPECT_EQ(server.eager_update_count(), eager_before + 1);
    EXPECT_EQ(timeline(server, "ann").size(), 2u);
}

TEST(Server, RematerializationDoesNotDuplicateUpdaters) {
    Server server;
    server.add_join(kTimelineJoin);
    server.put("s|ann|bob", "1");
    server.put("p|bob|0000000001", "one");
    ASSERT_EQ(timeline(server, "ann").size(), 1u);
    size_t per_user_updaters = server.updater_count();
    // A whole-table scan recomputes uncovered regions; the updaters it
    // would re-register for ann's already-materialized ranges must be
    // deduplicated (only the broader unbound-slot ones are new).
    size_t n = 0;
    server.scan("t|", "t}",
                [&](const std::string&, const ValuePtr&) { ++n; });
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(server.updater_count(), per_user_updaters + 1);
    uint64_t eager_before = server.eager_update_count();
    server.put("p|bob|0000000002", "two");
    // One eager sink write, not one per duplicate updater.
    EXPECT_EQ(server.eager_update_count(), eager_before + 1);
    EXPECT_EQ(timeline(server, "ann").size(), 2u);
}

TEST(Server, InvalidateSinkRangeRematerializes) {
    Server server;
    server.add_join(kTimelineJoin);
    server.put("s|ann|bob", "1");
    server.put("p|bob|0000000001", "one");
    auto before = timeline(server, "ann");
    ASSERT_EQ(before.size(), 1u);
    EXPECT_EQ(server.materialization_count(), 1u);
    // Declaring the sink range suspect erases the materialized rows and
    // shrinks the valid set; the sources are untouched, so the next scan
    // rebuilds the identical output.
    server.invalidate_range("t|ann|", "t|ann}");
    EXPECT_EQ(server.invalidation_count(), 1u);
    EXPECT_EQ(timeline(server, "ann"), before);
    EXPECT_EQ(server.materialization_count(), 2u);
    // Maintenance still works after rematerialization — and without
    // duplicated updaters (one eager write per put).
    uint64_t eager_before = server.eager_update_count();
    server.put("p|bob|0000000002", "two");
    EXPECT_EQ(server.eager_update_count(), eager_before + 1);
    EXPECT_EQ(timeline(server, "ann").size(), 2u);
    EXPECT_EQ(server.materialization_count(), 2u);
}

TEST(Server, InvalidateSourceTearsDownUpdaters) {
    Server server;
    server.add_join(kTimelineJoin);
    server.put("s|ann|bob", "1");
    server.put("p|bob|0000000001", "one");
    ASSERT_EQ(timeline(server, "ann").size(), 1u);
    // Invalidating bob's posts drops the cached copies, tears down the
    // updater registered over them, and marks the timeline rows built
    // from them suspect: nothing stale may be served.
    size_t torn = server.invalidate_range("p|bob|", "p|bob}");
    EXPECT_GE(torn, 1u);
    EXPECT_TRUE(timeline(server, "ann").empty());
    // Re-delivering the source data re-registers maintenance: the put
    // lands in the re-materialized (currently empty) valid range.
    server.put("p|bob|0000000001", "one again");
    EXPECT_EQ(timeline(server, "ann"),
              (std::vector<std::string>{"t|ann|0000000001|bob"}));
    uint64_t eager_before = server.eager_update_count();
    server.put("p|bob|0000000002", "two");
    EXPECT_EQ(server.eager_update_count(), eager_before + 1);
    EXPECT_EQ(timeline(server, "ann").size(), 2u);
}

TEST(Server, InvalidateSourceCascadesThroughChainedJoins) {
    Server server;
    server.add_join(kTimelineJoin);
    server.add_join("z|<u>|<ts:10>|<p> = copy t|<u>|<ts:10>|<p>");
    server.put("s|ann|bob", "1");
    server.put("p|bob|0000000001", "one");
    std::vector<std::string> keys;
    server.scan("z|ann|", "z|ann}",
                [&](const std::string& k, const ValuePtr&) {
                    keys.push_back(k);
                });
    ASSERT_EQ(keys, (std::vector<std::string>{"z|ann|0000000001|bob"}));
    // Invalidating the *base* source must cascade: p|bob| feeds t|ann|,
    // whose rows feed z|ann| — both derived layers become suspect.
    server.invalidate_range("p|bob|", "p|bob}");
    keys.clear();
    server.scan("z|ann|", "z|ann}",
                [&](const std::string& k, const ValuePtr&) {
                    keys.push_back(k);
                });
    EXPECT_TRUE(keys.empty());
    EXPECT_TRUE(timeline(server, "ann").empty());
    // Re-delivery flows back through the whole chain.
    server.put("p|bob|0000000001", "one again");
    server.put("p|bob|0000000002", "two");
    keys.clear();
    server.scan("z|ann|", "z|ann}",
                [&](const std::string& k, const ValuePtr& v) {
                    keys.push_back(k + "=" + *v);
                });
    EXPECT_EQ(keys, (std::vector<std::string>{
                        "z|ann|0000000001|bob=one again",
                        "z|ann|0000000002|bob=two"}));
}

TEST(Server, InvalidateUnmaterializedRangeIsHarmless) {
    Server server;
    server.add_join(kTimelineJoin);
    server.put("s|ann|bob", "1");
    server.put("p|bob|0000000001", "one");
    // No scan has happened: nothing is materialized, no updaters exist.
    EXPECT_EQ(server.invalidate_range("t|", "t}"), 0u);
    EXPECT_EQ(server.invalidate_range("p|eve|", "p|eve}"), 0u);
    EXPECT_EQ(timeline(server, "ann").size(), 1u);
}

// ---- updater groups ---------------------------------------------------------

std::string follower(int f) {
    return "f" + pad_number(static_cast<uint64_t>(f), 3);
}

// `followers` users who each follow every poster in `posters`, with
// every timeline materialized.
void follow_and_login(Server& server, int followers,
                      const std::vector<std::string>& posters) {
    for (const std::string& p : posters)
        server.put("p|" + p + "|0000000001", p + " one");
    for (int f = 0; f < followers; ++f) {
        for (const std::string& p : posters)
            server.put("s|" + follower(f) + "|" + p, "1");
        timeline(server, follower(f));
    }
}

TEST(UpdaterGroups, FollowersOfOnePosterShareOneGroup) {
    const int n = 12;
    Server server;
    server.add_join(kTimelineJoin);
    follow_and_login(server, n, {"bob"});
    // One group per follower's subscription range, plus one for bob's
    // posts holding all n follower bindings.
    EXPECT_EQ(server.updater_group_count(), static_cast<size_t>(n + 1));
    EXPECT_EQ(server.updater_count(), static_cast<size_t>(2 * n));
    // A second poster adds one group, not one per follower.
    for (int f = 0; f < n; ++f)
        server.put("s|" + follower(f) + "|eve", "1");
    EXPECT_EQ(server.updater_group_count(), static_cast<size_t>(n + 2));
    EXPECT_EQ(server.updater_count(), static_cast<size_t>(3 * n));
    // A post fans out to exactly n timelines.
    uint64_t eager_before = server.eager_update_count();
    server.put("p|bob|0000000002", "bob two");
    EXPECT_EQ(server.eager_update_count(), eager_before + n);
    for (int f = 0; f < n; ++f)
        EXPECT_EQ(timeline(server, follower(f)).size(), 2u);
    server.verify();
}

TEST(UpdaterGroups, RepeatsAddNoDuplicateBinding) {
    const int n = 5;
    Server server;
    server.add_join(kTimelineJoin);
    follow_and_login(server, n, {"bob", "eve"});
    size_t groups = server.updater_group_count();
    size_t bindings = server.updater_count();
    // A repeated follow and repeated logins change nothing.
    for (int f = 0; f < n; ++f) {
        server.put("s|" + follower(f) + "|bob", "1");
        timeline(server, follower(f));
    }
    EXPECT_EQ(server.updater_group_count(), groups);
    EXPECT_EQ(server.updater_count(), bindings);
    // A whole-table scan adds only its own unbound subscription group;
    // the per-poster bindings it re-derives are already installed.
    size_t rows = 0;
    server.scan("t|", "t}",
                [&rows](const std::string&, const ValuePtr&) { ++rows; });
    EXPECT_EQ(rows, static_cast<size_t>(2 * n));
    EXPECT_EQ(server.updater_group_count(), groups + 1);
    EXPECT_EQ(server.updater_count(), bindings + 1);
    uint64_t eager_before = server.eager_update_count();
    server.put("p|eve|0000000002", "eve two");
    EXPECT_EQ(server.eager_update_count(), eager_before + n);
    server.verify();
}

TEST(UpdaterGroups, InvalidatingPosterRangeTearsDownEveryBinding) {
    const int n = 7;
    Server server;
    server.add_join(kTimelineJoin);
    follow_and_login(server, n, {"bob", "eve"});
    size_t groups = server.updater_group_count();
    size_t bindings = server.updater_count();
    EXPECT_EQ(server.invalidate_range("p|bob|", "p|bob}"),
              static_cast<size_t>(n));
    EXPECT_EQ(server.updater_group_count(), groups - 1);
    EXPECT_EQ(server.updater_count(), bindings - n);
    server.verify();
    // Nothing stale is served, and eve's group still fans out.
    uint64_t eager_before = server.eager_update_count();
    server.put("p|eve|0000000002", "eve two");
    EXPECT_EQ(server.eager_update_count(), eager_before + n);
    for (int f = 0; f < n; ++f)
        EXPECT_EQ(timeline(server, follower(f)).size(), 2u);
    // Re-materializing reinstalled bob's group with every binding.
    EXPECT_EQ(server.updater_group_count(), groups);
    EXPECT_EQ(server.updater_count(), bindings);
}

TEST(UpdaterGroups, ReentrantInstallResumesAfterTheRunningBinding) {
    // z| reads t|: a new t|dan| row makes z look up dan's mirror cat and
    // copy cat's whole timeline, which materializes t|cat| — installing
    // cat into bob's group while bob's post is still fanning out through
    // it. cat sorts before dan, so the running binding moves up one slot.
    Server server;
    server.add_join(kTimelineJoin);
    server.add_join("z|<a>|<b>|<x:10>|<q> = check t|<a>|<r> "
                    "check m|<a>|<b> copy t|<b>|<x:10>|<q>");
    server.put("s|dan|bob", "1");
    server.put("s|cat|bob", "1");
    server.put("m|dan|cat", "1");
    EXPECT_TRUE(timeline(server, "dan").empty());
    std::vector<std::string> z;
    auto scan_z = [&] {
        z.clear();
        server.scan("z|dan|", "z|dan}",
                    [&z](const std::string& k, const ValuePtr&) {
                        z.push_back(k);
                    });
    };
    scan_z();
    EXPECT_TRUE(z.empty());
    const size_t bindings = server.updater_count();
    uint64_t eager_before = server.eager_update_count();
    server.put("p|bob|0000000001", "one");
    // Only dan's binding ran; cat's arrived with a scan that already saw
    // the post, and dan's did not run twice.
    EXPECT_EQ(server.eager_update_count(), eager_before + 1);
    EXPECT_GT(server.updater_count(), bindings);
    EXPECT_EQ(timeline(server, "cat"),
              (std::vector<std::string>{"t|cat|0000000001|bob"}));
    scan_z();
    EXPECT_EQ(z, (std::vector<std::string>{"z|dan|cat|0000000001|bob"}));
    server.verify();
}

TEST(UpdaterGroups, CountsDropOnInvalidationAndStayBoundedUnderChurn) {
    const int n = 4;
    Server server;
    server.add_join(kTimelineJoin);
    follow_and_login(server, n, {"bob", "eve", "amy"});
    const size_t groups = server.updater_group_count();
    const size_t bindings = server.updater_count();
    for (int cycle = 0; cycle < 100; ++cycle) {
        // Tear down one follower's subscription group (cascading to its
        // timeline) and one poster's group.
        server.invalidate_range("s|" + follower(cycle % n) + "|",
                                "s|" + follower(cycle % n) + "}");
        server.invalidate_range("p|eve|", "p|eve}");
        ASSERT_LT(server.updater_group_count(), groups);
        ASSERT_LT(server.updater_count(), bindings);
        // Invalidation dropped the cached copies of the follower's
        // subscriptions and eve's posts; re-deliver them (as a
        // resubscribe's backfill would) and log everyone in.
        for (const char* p : {"bob", "eve", "amy"})
            server.put("s|" + follower(cycle % n) + "|" + p, "1");
        server.put("p|eve|0000000001", "eve one");
        for (int f = 0; f < n; ++f)
            ASSERT_EQ(timeline(server, follower(f)).size(), 3u);
        // Storage is exactly the live groups: counts return to their
        // starting values instead of growing with every cycle.
        ASSERT_EQ(server.updater_group_count(), groups);
        ASSERT_EQ(server.updater_count(), bindings);
    }
    server.verify();
}

TEST(Server, ScanSpanningPullJoinThrows) {
    Server server;
    server.add_join(
        "t|<u>|<ts:10>|<p> = pull check s|<u>|<p> copy p|<p>|<ts:10>");
    server.put("s|ann|bob", "1");
    server.put("p|bob|0000000001", "one");
    // Confined scans work; a scan extending beyond the pull sink table
    // cannot merge computed results into the store scan and must say so.
    EXPECT_EQ(timeline(server, "ann").size(), 1u);
    EXPECT_THROW(
        server.scan("a", "z", [](const std::string&, const ValuePtr&) {}),
        std::logic_error);
}

// ---- §4.3 value sharing -----------------------------------------------------

ServerConfig sharing_config(bool sharing) {
    ServerConfig config;
    config.enable_value_sharing = sharing;
    return config;
}

TEST(ValueSharing, SinkEntrySharesSourceBuffer) {
    Server server(sharing_config(true));
    server.add_join("t|<u>|<ts:10>|<p> = check s|<u>|<p> copy p|<p>|<ts:10>");
    server.put("s|ann|bob", "1");
    std::string post_key = "p|bob|" + pad_number(100, 10);
    server.put(post_key, "a post worth not copying");
    server.scan("t|ann|", "t|ann}",
                [](const std::string&, const ValuePtr&) {});
    const Entry* src = server.get_ptr(post_key);
    const Entry* sink =
        server.get_ptr("t|ann|" + pad_number(100, 10) + "|bob");
    ASSERT_NE(src, nullptr);
    ASSERT_NE(sink, nullptr);
    // Same buffer, not equal bytes: the sink holds a reference.
    EXPECT_EQ(&src->value(), &sink->value());
    EXPECT_TRUE(sink->shares_value());
    EXPECT_FALSE(src->shares_value());
    EXPECT_EQ(server.memory_stats().shared_value_count, 1u);
}

TEST(ValueSharing, SourceOverwriteVisibleThroughSharedSink) {
    Server server(sharing_config(true));
    server.add_join("t|<u>|<ts:10>|<p> = check s|<u>|<p> copy p|<p>|<ts:10>");
    server.put("s|ann|bob", "1");
    std::string post_key = "p|bob|" + pad_number(100, 10);
    server.put(post_key, "first");
    server.scan("t|ann|", "t|ann}",
                [](const std::string&, const ValuePtr&) {});
    const Entry* sink =
        server.get_ptr("t|ann|" + pad_number(100, 10) + "|bob");
    ASSERT_NE(sink, nullptr);
    server.put(post_key, "second");
    EXPECT_EQ(sink->value(), "second");
    // The eager update re-shared rather than duplicated: still one
    // buffer, still counted once.
    EXPECT_EQ(&server.get_ptr(post_key)->value(), &sink->value());
    EXPECT_EQ(server.memory_stats().shared_value_count, 1u);
}

TEST(ValueSharing, DirectSinkOverwriteDetachesFromSource) {
    Server server(sharing_config(true));
    server.add_join("t|<u>|<ts:10>|<p> = check s|<u>|<p> copy p|<p>|<ts:10>");
    server.put("s|ann|bob", "1");
    std::string post_key = "p|bob|" + pad_number(100, 10);
    server.put(post_key, "original");
    server.scan("t|ann|", "t|ann}",
                [](const std::string&, const ValuePtr&) {});
    std::string sink_key = "t|ann|" + pad_number(100, 10) + "|bob";
    // Writing the sink key directly must not clobber the source.
    server.put(sink_key, "annotated");
    EXPECT_EQ(server.get_ptr(sink_key)->value(), "annotated");
    EXPECT_EQ(server.get_ptr(post_key)->value(), "original");
    EXPECT_EQ(server.memory_stats().shared_value_count, 0u);
}

TEST(ValueSharing, MemoryStatsCountSharedValuesOnce) {
    // A fan-out join: every follower's timeline repeats the post bytes,
    // so sharing must save ~(followers - 1) copies of each value.
    const int followers = 16;
    const std::string body(120, 'x');
    auto run = [&](bool sharing) {
        Server server(sharing_config(sharing));
        server.add_join(
            "t|<u>|<ts:10>|<p> = check s|<u>|<p> copy p|<p>|<ts:10>");
        for (int f = 0; f < followers; ++f)
            server.put("s|" + pad_number(f, 6) + "|star", "1");
        for (int n = 0; n < 10; ++n)
            server.put("p|star|" + pad_number(n, 10), body);
        for (int f = 0; f < followers; ++f) {
            std::string lo = "t|" + pad_number(f, 6) + "|";
            server.scan(lo, prefix_successor(lo),
                        [](const std::string&, const ValuePtr&) {});
        }
        return server.memory_stats();
    };
    MemoryStats with = run(true);
    MemoryStats without = run(false);
    EXPECT_EQ(with.entry_count, without.entry_count);
    EXPECT_EQ(with.shared_value_count,
              static_cast<size_t>(followers) * 10u);
    EXPECT_EQ(without.shared_value_count, 0u);
    // Sharing stores each post body once instead of 1 + followers times.
    EXPECT_EQ(without.value_bytes - with.value_bytes,
              static_cast<size_t>(followers) * 10u * body.size());
    EXPECT_LT(with.total(), without.total());
}

TEST(ValueSharing, SharedBufferSurvivesSourceErase) {
    // The refcount keeps the buffer alive past its owner: erasing the
    // source must leave the sink's value readable (and ASan quiet).
    Store store;
    Entry* src = store.put("p|bob|1", "still here");
    Entry* sink = store.put_shared("t|ann|1", src->share_value());
    EXPECT_EQ(&src->value(), &sink->value());
    EXPECT_EQ(store.memory_stats().shared_value_count, 1u);
    store.erase_range("p|", "p}");
    EXPECT_EQ(sink->value(), "still here");
    // Documented estimate boundary (see MemoryStats): the orphaned
    // buffer's payload left the accounting with its owner, though the
    // sharer keeps the bytes alive until it dies.
    EXPECT_EQ(store.memory_stats().value_bytes, 0u);
    EXPECT_EQ(store.memory_stats().shared_value_count, 1u);
}

TEST(Graph, GenerateAndSample) {
    apps::SocialGraph::Config cfg;
    cfg.users = 200;
    cfg.avg_following = 10;
    auto graph = apps::SocialGraph::generate(cfg);
    EXPECT_EQ(graph.user_count(), 200u);
    EXPECT_GT(graph.edge_count(), 200u * 5);
    uint64_t edges = 0;
    std::vector<uint32_t> in_edges(graph.user_count(), 0);
    for (uint32_t u = 0; u < graph.user_count(); ++u) {
        for (uint32_t v : graph.following(u)) {
            EXPECT_NE(v, u);
            EXPECT_LT(v, graph.user_count());
            ++in_edges[v];
        }
        edges += graph.following(u).size();
    }
    EXPECT_EQ(edges, graph.edge_count());
    // follower_count is the in-degree of the following lists, and the
    // Zipf head is followed more than the tail.
    for (uint32_t u = 0; u < graph.user_count(); ++u)
        EXPECT_EQ(graph.follower_count(u), in_edges[u]);
    EXPECT_GT(graph.follower_count(0),
              graph.follower_count(graph.user_count() - 1));
    Rng rng(5);
    std::vector<uint32_t> hits(graph.user_count(), 0);
    for (int i = 0; i < 20000; ++i)
        ++hits[graph.sample_poster(rng)];
    // The most-followed users must post more than the long tail.
    EXPECT_GT(hits[0], hits[graph.user_count() - 1]);
}

TEST(Rng, Deterministic) {
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    Rng c(1);
    for (int i = 0; i < 1000; ++i) {
        double x = c.uniform();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
        EXPECT_LT(c.below(10), 10u);
    }
}


// ---- whole-group marks (DESIGN.md §3, §5) ----------------------------------
//
// Every case runs the same operations on a server with subtables (where
// hot checks read whole-group marks) and on a RangeSet-only oracle with
// subtables off, and requires equal scans and a clean verify().

using Rows = std::vector<std::pair<std::string, std::string>>;

Rows scan_rows(Server& server, Str lo, Str hi) {
    Rows rows;
    server.scan(lo, hi, [&](const std::string& k, const ValuePtr& v) {
        rows.emplace_back(k, *v);
    });
    return rows;
}

struct MarkPair {
    explicit MarkPair(bool subtables = true) : marked(config(subtables)),
                                               oracle(config(false)) {}
    static ServerConfig config(bool subtables) {
        ServerConfig c;
        c.store.enable_subtables = subtables;
        return c;
    }
    void add_join(const std::string& spec) {
        marked.add_join(spec);
        oracle.add_join(spec);
    }
    void put(const std::string& k, const std::string& v) {
        marked.put(k, v);
        oracle.put(k, v);
    }
    void invalidate(const std::string& lo, const std::string& hi) {
        marked.invalidate_range(lo, hi);
        oracle.invalidate_range(lo, hi);
    }
    Rows scan(const std::string& lo, const std::string& hi) {
        Rows got = scan_rows(marked, lo, hi);
        EXPECT_EQ(got, scan_rows(oracle, lo, hi)) << "[" << lo << ", " << hi
                                                  << ")";
        marked.verify();
        return got;
    }
    bool hot(const std::string& lo, const std::string& hi) const {
        return marked.hot_check_for_test(lo, hi);
    }
    Server marked;
    Server oracle;
};

void follow_and_post(MarkPair& p) {
    p.add_join(kTimelineJoin);
    for (const char* u : {"ann", "bob", "cat"})
        p.put(std::string("s|") + u + "|star", "1");
    for (int ts = 1; ts <= 5; ++ts)
        p.put("p|star|" + pad_number(static_cast<uint64_t>(ts), 10),
              "post" + std::to_string(ts));
}

TEST(GroupMark, MaterializedGroupServesHotChecks) {
    MarkPair p;
    follow_and_post(p);
    EXPECT_FALSE(p.hot("t|ann|", "t|ann}"));
    EXPECT_EQ(p.scan("t|ann|", "t|ann}").size(), 5u);
    EXPECT_TRUE(p.hot("t|ann|", "t|ann}"));
    EXPECT_TRUE(p.hot("t|ann|0000000003", "t|ann}"));
    uint64_t mats = p.marked.materialization_count();
    EXPECT_EQ(p.scan("t|ann|0000000003", "t|ann}").size(), 3u);
    // Eager maintenance keeps a marked group fresh without re-running.
    p.put("p|star|0000000006", "post6");
    EXPECT_EQ(p.scan("t|ann|", "t|ann}").size(), 6u);
    EXPECT_EQ(p.marked.materialization_count(), mats);
    EXPECT_FALSE(p.hot("t|bob|", "t|bob}"));
}

TEST(GroupMark, PartialInvalidationInsideMarkedGroup) {
    MarkPair p;
    follow_and_post(p);
    p.scan("t|ann|", "t|ann}");
    p.scan("t|bob|", "t|bob}");
    ASSERT_TRUE(p.hot("t|ann|", "t|ann}"));
    p.invalidate("t|ann|0000000002", "t|ann|0000000004");
    p.marked.verify();
    EXPECT_FALSE(p.hot("t|ann|", "t|ann}"));
    EXPECT_FALSE(p.hot("t|ann|0000000005", "t|ann}"));
    EXPECT_TRUE(p.hot("t|bob|", "t|bob}"));
    // The still-valid tail is served from the valid set; the whole block
    // re-materializes and is marked again.
    EXPECT_EQ(p.scan("t|ann|0000000005", "t|ann}").size(), 1u);
    EXPECT_EQ(p.scan("t|ann|", "t|ann}").size(), 5u);
    EXPECT_TRUE(p.hot("t|ann|", "t|ann}"));
}

TEST(GroupMark, WholeSinkScanThenPerUserChecks) {
    MarkPair p;
    follow_and_post(p);
    EXPECT_EQ(p.scan("t|", "t}").size(), 15u);
    // The whole-sink range is no group's block, so nothing is marked
    // yet; the first covered per-user check marks its group.
    EXPECT_FALSE(p.hot("t|ann|", "t|ann}"));
    uint64_t mats = p.marked.materialization_count();
    for (const char* u : {"ann", "bob", "cat"}) {
        std::string lo = std::string("t|") + u + "|";
        EXPECT_EQ(p.scan(lo, prefix_successor(lo)).size(), 5u);
        EXPECT_TRUE(p.hot(lo, prefix_successor(lo)));
    }
    EXPECT_EQ(p.marked.materialization_count(), mats);
    p.put("p|star|0000000007", "post7");
    EXPECT_EQ(p.scan("t|cat|", "t|cat}").size(), 6u);
    p.invalidate("t|", "t}");
    EXPECT_FALSE(p.hot("t|cat|", "t|cat}"));
    EXPECT_EQ(p.scan("t|cat|", "t|cat}").size(), 6u);
}

TEST(GroupMark, ChainedJoinReadsMarkedSource) {
    MarkPair p;
    follow_and_post(p);
    p.add_join("c|<u>|<ts:10>|<p> = copy t|<u>|<ts:10>|<p>");
    p.scan("t|ann|", "t|ann}");
    ASSERT_TRUE(p.hot("t|ann|", "t|ann}"));
    uint64_t mats = p.marked.materialization_count();
    // The chained sink's freshen of its source finds the mark.
    EXPECT_EQ(p.scan("c|ann|", "c|ann}").size(), 5u);
    EXPECT_EQ(p.marked.materialization_count(), mats + 1);
    EXPECT_TRUE(p.hot("c|ann|", "c|ann}"));
    p.put("p|star|0000000008", "post8");
    EXPECT_EQ(p.scan("c|ann|", "c|ann}").size(), 6u);
    // A suspect source range clears its mark and cascades into the
    // chained sink's, and one scan re-materializes both.
    p.invalidate("t|ann|0000000002", "t|ann|0000000003");
    EXPECT_FALSE(p.hot("t|ann|", "t|ann}"));
    EXPECT_FALSE(p.hot("c|ann|", "c|ann}"));
    EXPECT_EQ(p.scan("c|ann|", "c|ann}").size(), 6u);
    EXPECT_TRUE(p.hot("t|ann|", "t|ann}"));
    EXPECT_TRUE(p.hot("c|ann|", "c|ann}"));
}

TEST(GroupMark, SubtablesDisabledNeverMark) {
    MarkPair p(false);
    follow_and_post(p);
    EXPECT_EQ(p.scan("t|ann|", "t|ann}").size(), 5u);
    EXPECT_FALSE(p.hot("t|ann|", "t|ann}"));
    EXPECT_EQ(p.scan("t|ann|", "t|ann}").size(), 5u);
}

TEST(GroupMark, EmptyTimelineFallsBackToValidSet) {
    MarkPair p;
    follow_and_post(p);
    EXPECT_TRUE(p.scan("t|zed|", "t|zed}").empty());
    // No row, no subtable: the valid set answers.
    EXPECT_FALSE(p.hot("t|zed|", "t|zed}"));
    uint64_t mats = p.marked.materialization_count();
    EXPECT_TRUE(p.scan("t|zed|", "t|zed}").empty());
    EXPECT_EQ(p.marked.materialization_count(), mats);
    // Maintenance creates the subtable; the next covered check marks it.
    p.put("s|zed|star", "1");
    EXPECT_EQ(p.scan("t|zed|", "t|zed}").size(), 5u);
    EXPECT_TRUE(p.hot("t|zed|", "t|zed}"));
}

TEST(GroupMark, ShortOrSpanningScansTakeTheGeneralPath) {
    MarkPair p;
    follow_and_post(p);
    p.scan("t|ann|", "t|ann}");
    p.scan("t|bob|", "t|bob}");
    EXPECT_FALSE(p.hot("t|ann", "t|ann}"));
    EXPECT_FALSE(p.hot("t|ann|", "t|bob|0000000003"));
    EXPECT_FALSE(p.hot("t|ann|", ""));
    EXPECT_EQ(p.scan("t|ann", "t|ann}").size(), 5u);
    EXPECT_EQ(p.scan("t|ann|", "t|bob|0000000003").size(), 7u);
    EXPECT_EQ(p.scan("t|ann|0000000004", "t|cat|").size(), 7u);
}

TEST(GroupMark, NarrowMaterializationDoesNotMarkGroup) {
    MarkPair p;
    follow_and_post(p);
    // One timestamp's slice binds more than the group's slot, so it
    // materializes less than the group's block.
    EXPECT_EQ(p.scan("t|ann|0000000003|", "t|ann|0000000003}").size(), 1u);
    EXPECT_FALSE(p.hot("t|ann|", "t|ann}"));
    EXPECT_FALSE(p.hot("t|ann|0000000003|", "t|ann|0000000003}"));
    EXPECT_EQ(p.scan("t|ann|", "t|ann}").size(), 5u);
    EXPECT_TRUE(p.hot("t|ann|", "t|ann}"));
}

TEST(GroupMark, PullSinkIsNeverMarked) {
    MarkPair p;
    p.add_join(
        "t|<u>|<ts:10>|<p> = pull check s|<u>|<p> copy p|<p>|<ts:10>");
    p.put("s|ann|star", "1");
    p.put("p|star|0000000001", "post1");
    EXPECT_EQ(p.scan("t|ann|", "t|ann}").size(), 1u);
    EXPECT_FALSE(p.hot("t|ann|", "t|ann}"));
}

}  // namespace
}  // namespace pequod
