// Durability-tier tests (DESIGN.md §13). The contract under test:
//
//  - WAL records round-trip, rotate across segments, and replay stops
//    cleanly at the first torn or corrupt tail record of a segment —
//    never applying anything after it in that segment, while a tear in
//    a non-final segment (an older incarnation's frozen frontier) must
//    not shadow the durable records of later segments;
//  - a checkpoint with a bit flip at *every* byte offset, or cut at
//    every length, is refused and recovery falls back to the previous
//    checkpoint plus a longer replay, still matching the oracle; an
//    unpublished tmp checkpoint is never read, and a corrupt MANIFEST
//    refuses to start rather than silently dropping checkpoints;
//  - checkpoint + WAL replay reconstructs exactly the durable prefix:
//    a seeded kill-at-random-op crash loop compares every recovery
//    against an oracle of flushed (= acked) operations;
//  - the distrib and shard tiers restart from disk: acked writes
//    survive, generations bump durably, and derived data rebuilds.
//
// All scratch directories live under the test's working directory (the
// build tree), never /tmp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/base.hh"
#include "common/rng.hh"
#include "common/str.hh"
#include "distrib/cluster.hh"
#include "net/message.hh"
#include "persist/crc32c.hh"
#include "persist/io.hh"
#include "persist/persist.hh"
#include "persist/record.hh"
#include "persist/wal.hh"
#include "shard/sharded_server.hh"
#include "temp_dir.hh"

namespace pequod {
namespace persist {
namespace {

using Oracle = std::map<std::string, std::string>;
using Items = std::vector<std::pair<std::string, std::string>>;

Items replay_all(const std::string& dir, ReplayResult* rr = nullptr) {
    Items out;
    auto handler = [&out](const Record& rec) {
        out.emplace_back(rec.key.str(),
                         (rec.op == Record::kPut ? "P" : "E")
                             + rec.value.str());
    };
    ReplayResult r =
        Wal::replay(dir, 0, FnRef<void(const Record&)>(handler));
    if (rr)
        *rr = r;
    return out;
}

Oracle recover_inplace(Persistence& p, RecoverResult* out = nullptr) {
    Oracle m;
    RecoverResult r = p.recover(
        [&m](Str key, Str value) {
            m[key.str()] = value.str();
        },
        [&m](Str lo, Str hi) {
            m.erase(m.lower_bound(lo.str()),
                    hi.empty() ? m.end() : m.lower_bound(hi.str()));
        });
    if (out)
        *out = r;
    return m;
}

Oracle recover_into_map(const PersistConfig& pc,
                        RecoverResult* out = nullptr) {
    Persistence p(pc);
    return recover_inplace(p, out);
}

// Flip one bit at byte `offset` of `path`.
void flip_bit(const std::string& path, uint64_t offset) {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    std::fputc(c ^ 0x10, f);
    std::fclose(f);
}

// ---- WAL --------------------------------------------------------------------

TEST(Wal, RecordsRoundTrip) {
    TempDir td;
    WalConfig wc;
    wc.dir = td.sub("wal");
    {
        Wal wal(wc);
        wal.append_put("k|1", "v1");
        wal.append_put("k|2", "");
        wal.append_erase("k|1", "k|2");
        wal.append_put("k|long", std::string(3000, 'x'));
        wal.flush();
        EXPECT_EQ(wal.stats().durable_ops, 4u);
        EXPECT_EQ(wal.stats().fsyncs, 1u);  // one group commit
    }
    ReplayResult rr;
    Items records = replay_all(wc.dir, &rr);
    EXPECT_TRUE(rr.clean);
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(records[0].first, "k|1");
    EXPECT_EQ(records[0].second, "Pv1");
    EXPECT_EQ(records[1].second, "P");
    EXPECT_EQ(records[2].second, "Ek|2");
    EXPECT_EQ(records[3].second, "P" + std::string(3000, 'x'));
}

// The on-disk WAL format is a compatibility contract: logs written by
// an older build must replay under a newer one. A fixed record stream
// (one- and two-byte length varints, an empty value, an erase) must
// produce exactly these segment bytes.
TEST(Wal, SegmentBytesMatchGoldenEncoding) {
    TempDir td;
    WalConfig wc;
    wc.dir = td.sub("wal");
    {
        Wal wal(wc);
        wal.append_put("k|1", "v1");
        wal.append_put("k|2", "");
        wal.append_erase("k|1", "k|2");
        wal.append_put("k|long", std::string(130, 'x'));
        wal.flush();
    }
    auto segs = Wal::segments_in(wc.dir);
    ASSERT_EQ(segs.size(), 1u);
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(read_file(Wal::segment_path(wc.dir, segs[0]), bytes));
    std::string hex;
    for (uint8_t b : bytes) {
        char two[3];
        std::snprintf(two, sizeof two, "%02x", b);
        hex += two;
    }
    std::string long_value;
    for (int i = 0; i != 130; ++i)
        long_value += "78";  // 'x'
    // Each record: [varint len][op][klen][key][vlen][value][crc32c LE].
    const std::string golden =
        std::string("08" "01036b7c31027631" "593dd79c")
        + "06" "01036b7c3200" "21b8cb8f"
        + "09" "02036b7c31036b7c32" "98930322"
        + "8c01" "01066b7c6c6f6e678201" + long_value + "014f1594";
    EXPECT_EQ(hex, golden);
}

TEST(Wal, GroupCommitBatchesFsyncs) {
    TempDir td;
    WalConfig wc;
    wc.dir = td.sub("wal");
    wc.flush_interval_ops = 4;
    Wal wal(wc);
    for (int i = 0; i != 3; ++i)
        wal.append_put("k", "v");
    EXPECT_EQ(wal.buffered_ops(), 3u);
    EXPECT_EQ(wal.stats().durable_ops, 0u);  // nothing flushed yet
    wal.append_put("k", "v");  // fills the group commit interval
    EXPECT_EQ(wal.buffered_ops(), 0u);
    EXPECT_EQ(wal.stats().durable_ops, 4u);
    EXPECT_EQ(wal.stats().fsyncs, 1u);  // four ops, one fsync
}

TEST(Wal, UnflushedRecordsDieWithACrash) {
    TempDir td;
    WalConfig wc;
    wc.dir = td.sub("wal");
    wc.flush_interval_ops = 100;
    {
        Wal wal(wc);
        wal.append_put("durable", "yes");
        wal.flush();
        wal.append_put("lost", "yes");
        wal.simulate_crash();  // power loss before the second flush
    }
    ReplayResult rr;
    Items records = replay_all(wc.dir, &rr);
    EXPECT_TRUE(rr.clean);  // the log is short, not torn
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].first, "durable");
}

TEST(Wal, RotatesSegmentsAndReplaysAcrossThem) {
    TempDir td;
    WalConfig wc;
    wc.dir = td.sub("wal");
    wc.flush_interval_ops = 2;
    {
        // Ten records fill a segment, so 40 span four of them.
        Wal wal(wc);
        for (int i = 0; i != 40; ++i)
            wal.append_put("key|" + std::to_string(i),
                           std::string(kWalSegmentBytes / 10, 'v'));
        wal.flush();
    }
    EXPECT_GT(Wal::segments_in(wc.dir).size(), 3u);
    ReplayResult rr;
    Items records = replay_all(wc.dir, &rr);
    EXPECT_TRUE(rr.clean);
    ASSERT_EQ(records.size(), 40u);
    for (size_t i = 0; i != 40; ++i)
        EXPECT_EQ(records[i].first, "key|" + std::to_string(i));
}

TEST(Wal, TruncateBeforeDropsCoveredSegments) {
    TempDir td;
    WalConfig wc;
    wc.dir = td.sub("wal");
    Wal wal(wc);
    wal.append_put("a", "1");
    uint64_t cut = wal.rotate();
    wal.append_put("b", "2");
    wal.flush();
    wal.truncate_before(cut);
    Items records = replay_all(wc.dir);
    ASSERT_EQ(records.size(), 1u);  // "a"'s segment is gone
    EXPECT_EQ(records[0].first, "b");
}

// A crash can cut the log at any byte. Truncate the flushed log at
// every length and require replay to recover exactly the whole records
// before the cut — nothing after, no exception, no garbage — and to
// report the log clean precisely when the cut falls on a record
// boundary.
TEST(Wal, TornTailStopsReplayAtEveryTruncationPoint) {
    TempDir td;
    WalConfig wc;
    wc.dir = td.sub("wal");
    {
        Wal wal(wc);
        for (int i = 0; i != 8; ++i)
            wal.append_put("key|" + std::to_string(i),
                           "value" + std::to_string(i * 7));
        wal.flush();
    }
    auto segs = Wal::segments_in(wc.dir);
    ASSERT_EQ(segs.size(), 1u);
    std::string seg = Wal::segment_path(wc.dir, segs[0]);
    std::vector<uint8_t> full;
    ASSERT_TRUE(read_file(seg, full));

    // Walk the record framing ([varint len][payload][crc u32]) to learn
    // where each record ends.
    std::vector<size_t> boundary{0};
    size_t pos = 0;
    while (pos < full.size()) {
        uint64_t len = 0;
        int shift = 0;
        while (full[pos] & 0x80) {
            len |= static_cast<uint64_t>(full[pos++] & 0x7f) << shift;
            shift += 7;
        }
        len |= static_cast<uint64_t>(full[pos++]) << shift;
        pos += static_cast<size_t>(len) + 4;
        boundary.push_back(pos);
    }
    ASSERT_EQ(boundary.size(), 9u);  // 8 records
    ASSERT_EQ(boundary.back(), full.size());

    for (size_t cut = 0; cut != full.size(); ++cut) {
        {
            File f = File::create(seg);
            f.write_all(full.data(), cut);
        }
        size_t whole = 0;
        while (boundary[whole + 1] <= cut)
            ++whole;
        bool at_boundary = boundary[whole] == cut;
        ReplayResult rr;
        Items records = replay_all(wc.dir, &rr);
        EXPECT_EQ(rr.clean, at_boundary) << "cut=" << cut;
        ASSERT_EQ(records.size(), whole) << "cut=" << cut;
        for (size_t i = 0; i != records.size(); ++i) {
            EXPECT_EQ(records[i].first, "key|" + std::to_string(i));
            EXPECT_EQ(records[i].second,
                      "Pvalue" + std::to_string(i * 7));
        }
    }
}

// The crash-loop regression the review demanded: a REAL torn tail on
// disk (not simulate_crash, which leaves whole bytes) in segment N,
// then a later incarnation appending fsync'd records to segment N+1.
// Replay must skip past the frozen tear and still deliver every
// acknowledged record of the later incarnation — a tear can only be
// the durable frontier of the incarnation that wrote it.
TEST(Wal, TornTailInOlderSegmentDoesNotShadowLaterSegments) {
    TempDir td;
    WalConfig wc;
    wc.dir = td.sub("wal");
    {
        Wal wal(wc);
        wal.append_put("old|durable", "1");
        wal.append_put("old|torn", "2");
        wal.flush();
    }
    // Power loss mid-write: shear the last few bytes off the tail, so
    // the final record of segment 1 is torn on the platter.
    auto segs = Wal::segments_in(wc.dir);
    ASSERT_EQ(segs.size(), 1u);
    std::string seg1 = Wal::segment_path(wc.dir, segs[0]);
    std::vector<uint8_t> full;
    ASSERT_TRUE(read_file(seg1, full));
    ASSERT_GT(full.size(), 3u);
    {
        File f = File::create(seg1);
        f.write_all(full.data(), full.size() - 3);
    }
    // Next incarnation: appends land in segment 2; the tear is frozen.
    {
        Wal wal(wc);
        wal.append_put("new|acked", "3");
        wal.flush();
    }
    EXPECT_EQ(Wal::segments_in(wc.dir).size(), 2u);
    ReplayResult rr;
    Items records = replay_all(wc.dir, &rr);
    EXPECT_FALSE(rr.clean);
    EXPECT_EQ(rr.skipped_tails, 1u);
    EXPECT_EQ(rr.stopped_segment, segs[0]);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].first, "old|durable");
    EXPECT_EQ(records[1].first, "new|acked");  // survived the old tear
    EXPECT_EQ(records[1].second, "P3");

    // A tear in the FINAL segment is the current frontier: replay ends
    // there and skips nothing.
    std::string seg2 = Wal::segment_path(wc.dir, 2);
    std::vector<uint8_t> tail;
    ASSERT_TRUE(read_file(seg2, tail));
    {
        File f = File::create(seg2);
        f.write_all(tail.data(), tail.size() - 2);
    }
    records = replay_all(wc.dir, &rr);
    EXPECT_FALSE(rr.clean);
    EXPECT_EQ(rr.skipped_tails, 1u);  // still only segment 1's tear
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].first, "old|durable");
}

// Same scenario through the orchestrator: after a torn tail and a
// second incarnation of acknowledged writes, recover() must rebuild
// the union of both incarnations' durable prefixes.
TEST(Persistence, RecoverReplaysPastAnOlderIncarnationsTornTail) {
    TempDir td;
    PersistConfig pc;
    pc.dir = td.sub("p");
    {
        Persistence p(pc);
        recover_inplace(p);
        p.log_put("a", "1");
        p.log_put("b", "torn-away");
        p.flush();
    }
    // Tear the tail record of the first incarnation's segment.
    std::string wal_dir = pc.dir + "/wal";
    auto segs = Wal::segments_in(wal_dir);
    ASSERT_FALSE(segs.empty());
    std::string seg = Wal::segment_path(wal_dir, segs.back());
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(read_file(seg, bytes));
    {
        File f = File::create(seg);
        f.write_all(bytes.data(), bytes.size() - 2);
    }
    {
        Persistence p(pc);
        recover_inplace(p);
        p.log_put("c", "3");
        p.flush();
    }
    Oracle recovered = recover_into_map(pc);
    Oracle want{{"a", "1"}, {"c", "3"}};  // "b" died in the tear
    EXPECT_EQ(recovered, want);
}

// CRC-valid but malformed payloads (encoder bug or crafted file): a
// length varint that runs past the record end, or a huge inner length,
// must stop replay at the record — never read past the frame.
TEST(Wal, MalformedRecordLengthsStopReplaySafely) {
    // payloads[0]: op=kPut, then alen varint 0x81 whose continuation
    // runs off the record end into the CRC bytes (the old decoder's
    // size_t underflow path). payloads[1]: op=kPut, alen decodes huge.
    // payloads[2]: a well-formed checkpoint seal, which no log holds.
    const std::vector<std::vector<uint8_t>> payloads{
        {0x01, 0x81},
        {0x01, 0xff, 0xff, 0x7f},
        {0x03, 0x01, 0x00, 0x00},
    };
    for (const auto& payload : payloads) {
        TempDir td;
        std::string dir = td.sub("wal");
        make_dir(dir);
        net::Buffer frame;
        frame.write_varint(payload.size());
        frame.write_bytes(payload.data(), payload.size());
        frame.write_u32(crc32c(payload.data(), payload.size()));
        {
            File f = File::create(Wal::segment_path(dir, 1));
            f.write_all(frame.data(), frame.size());
        }
        ReplayResult rr;
        Items records = replay_all(dir, &rr);
        EXPECT_TRUE(records.empty());
        EXPECT_FALSE(rr.clean);
        EXPECT_EQ(rr.stop_reason, "malformed record");
    }
}

TEST(Wal, CorruptRecordStopsReplayWithoutApplyingIt) {
    TempDir td;
    WalConfig wc;
    wc.dir = td.sub("wal");
    {
        Wal wal(wc);
        wal.append_put("aaaa", "1111");
        wal.append_put("bbbb", "2222");
        wal.append_put("cccc", "3333");
        wal.flush();
    }
    std::string seg =
        Wal::segment_path(wc.dir, Wal::segments_in(wc.dir)[0]);
    std::vector<uint8_t> full;
    ASSERT_TRUE(read_file(seg, full));
    // Flip a bit in the middle record's region.
    flip_bit(seg, full.size() / 2);
    ReplayResult rr;
    Items records = replay_all(wc.dir, &rr);
    EXPECT_FALSE(rr.clean);
    EXPECT_LT(records.size(), 3u);
    if (!records.empty()) {  // whatever replayed is an intact prefix
        EXPECT_EQ(records[0].first, "aaaa");
        EXPECT_EQ(records[0].second, "P1111");
    }
}

// ---- persistence orchestration ---------------------------------------------

TEST(Persistence, CheckpointPlusReplayEqualsOracle) {
    TempDir td;
    PersistConfig pc;
    pc.dir = td.sub("p");
    Oracle oracle;
    {
        Persistence p(pc);
        recover_inplace(p);
        Rng rng(7);
        for (int i = 0; i != 500; ++i) {
            std::string key = "key|" + std::to_string(rng.below(120));
            std::string value = "v" + std::to_string(i);
            p.log_put(key, value);
            oracle[key] = value;
            if (i == 200 || i == 400) {
                bool ok = p.checkpoint(
                    [&oracle](FnRef<void(Str, Str)> emit) {
                        for (const auto& kv : oracle)
                            emit(Str(kv.first), Str(kv.second));
                    });
                ASSERT_TRUE(ok);
            }
        }
        p.flush();
    }
    RecoverResult rr;
    Oracle recovered = recover_into_map(pc, &rr);
    EXPECT_TRUE(rr.wal_tail_clean);
    EXPECT_FALSE(rr.used_fallback);
    EXPECT_GT(rr.checkpoint_entries, 0u);
    EXPECT_EQ(recovered, oracle);
}

TEST(Persistence, GenerationAdvancesDurablyAcrossRecoveries) {
    TempDir td;
    PersistConfig pc;
    pc.dir = td.sub("p");
    RecoverResult rr;
    recover_into_map(pc, &rr);
    EXPECT_EQ(rr.generation, 1u);
    recover_into_map(pc, &rr);
    EXPECT_EQ(rr.generation, 2u);
    recover_into_map(pc, &rr);
    EXPECT_EQ(rr.generation, 3u);
}

// Kill-at-random-op crash loop: across seeded runs, crash after a
// random number of operations (some flushed, some not, with checkpoints
// sprinkled in) and require every recovery to equal the oracle of
// *durable* operations exactly — everything flushed, nothing that
// wasn't.
TEST(Persistence, KillAtRandomOpRecoversExactlyTheDurablePrefix) {
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        TempDir td;
        PersistConfig pc;
        pc.dir = td.sub("p");
            pc.wal_flush_interval_ops = 5;  // group commit: tails can die
        Rng rng(seed * 977);
        Oracle durable;  // ops covered by a completed flush
        Oracle pending;  // appended, not yet flushed

        auto commit_pending = [&durable, &pending]() {
            for (auto& kv : pending)
                durable[kv.first] = kv.second;
            pending.clear();
        };

        uint64_t generations = 2 + rng.below(3);
        for (uint64_t g = 0; g != generations; ++g) {
            Persistence p(pc);
            Oracle live = recover_inplace(p);
            ASSERT_EQ(live, durable)
                << "seed " << seed << " generation " << g;
            pending.clear();

            uint64_t ops = 10 + rng.below(150);
            for (uint64_t i = 0; i != ops; ++i) {
                std::string key =
                    "key|" + std::to_string(rng.below(40));
                std::string value = "s" + std::to_string(seed) + "g"
                    + std::to_string(g) + "i" + std::to_string(i);
                p.log_put(key, value);
                live[key] = value;
                pending[key] = value;
                if (p.wal().buffered_ops() == 0)
                    commit_pending();  // append auto-triggered a flush
                if (rng.below(30) == 0) {
                    p.flush();
                    commit_pending();
                }
                if (rng.below(60) == 0) {
                    // checkpoint() flushes first: everything logged so
                    // far becomes durable, then gets snapshotted.
                    commit_pending();
                    bool ok = p.checkpoint(
                        [&live](FnRef<void(Str, Str)> emit) {
                            for (const auto& kv : live)
                                emit(Str(kv.first), Str(kv.second));
                        });
                    ASSERT_TRUE(ok);
                }
            }
            p.simulate_crash();  // the un-flushed tail dies here
        }
        Oracle recovered = recover_into_map(pc);
        EXPECT_EQ(recovered, durable) << "seed " << seed;
    }
}

// Log `keys` puts, checkpoint (1), overwrite them, checkpoint again (2,
// current; 1 retained as fallback), then log a flushed tail of `tail`
// fresh keys. Returns the oracle every recovery must reproduce.
Oracle two_checkpoint_history(const PersistConfig& pc, int keys,
                              int tail) {
    Oracle oracle;
    Persistence p(pc);
    recover_inplace(p);
    auto ckpt = [&p, &oracle]() {
        bool ok = p.checkpoint([&oracle](FnRef<void(Str, Str)> emit) {
            for (const auto& kv : oracle)
                emit(Str(kv.first), Str(kv.second));
        });
        EXPECT_TRUE(ok);
    };
    auto log = [&p, &oracle](int i, const char* tag) {
        std::string key = "key|" + std::to_string(i);
        oracle[key] = tag + std::to_string(i);
        p.log_put(key, oracle[key]);
    };
    for (int i = 0; i != keys; ++i)
        log(i, "first|");
    ckpt();
    for (int i = 0; i != keys; ++i)
        log(i, "second|");
    ckpt();
    for (int i = keys; i != keys + tail; ++i)
        log(i, "tail|");
    p.flush();
    return oracle;
}

TEST(Persistence, CorruptCheckpointFallsBackToPreviousPlusLongerReplay) {
    TempDir td;
    PersistConfig pc;
    pc.dir = td.sub("p");
    Oracle oracle = two_checkpoint_history(pc, 50, 20);
    // Corrupt the *current* checkpoint inside its first record.
    std::string current = pc.dir + "/ckpt-000002.ckpt";
    ASSERT_TRUE(file_exists(current));
    flip_bit(current, 5);

    RecoverResult rr;
    Oracle recovered = recover_into_map(pc, &rr);
    EXPECT_TRUE(rr.used_fallback);
    EXPECT_EQ(rr.corrupt_checkpoints, 1u);
    // The fallback replays a longer WAL stretch over checkpoint 1 and
    // still lands on the full oracle: corruption cost retention, never
    // data — and no pair of the bad checkpoint was ever applied.
    EXPECT_EQ(recovered, oracle);
    // The corrupt file was dropped; the next recovery is clean.
    EXPECT_FALSE(file_exists(current));
    Oracle again = recover_into_map(pc, &rr);
    EXPECT_FALSE(rr.used_fallback);
    EXPECT_EQ(again, oracle);
}

// A bit flip anywhere in a MANIFEST must stop the server from starting:
// treating it as a fresh start would silently drop every checkpointed
// key whose log segments were already truncated.
TEST(Persistence, CorruptManifestRefusesToStart) {
    TempDir td;
    PersistConfig pc;
    pc.dir = td.sub("p");
    Oracle oracle;
    {
        Persistence p(pc);
        recover_inplace(p);
        for (int round = 0; round != 3; ++round) {
            for (int i = 0; i != 100; ++i) {
                std::string key = "key|" + std::to_string(round * 100 + i);
                oracle[key] = "v" + std::to_string(i);
                p.log_put(key, oracle[key]);
            }
            ASSERT_TRUE(p.checkpoint([&oracle](FnRef<void(Str, Str)> emit) {
                for (const auto& kv : oracle)
                    emit(Str(kv.first), Str(kv.second));
            }));
        }
    }
    RecoverResult rr;
    ASSERT_EQ(recover_into_map(pc, &rr), oracle);
    const uint64_t generation = rr.generation;

    const std::string manifest = pc.dir + "/MANIFEST";
    std::vector<uint8_t> pristine;
    ASSERT_TRUE(read_file(manifest, pristine));
    for (uint64_t off = 0; off != pristine.size(); ++off) {
        flip_bit(manifest, off);
        EXPECT_THROW(Persistence p(pc), IoError) << "offset " << off;
        flip_bit(manifest, off);  // restore
    }
    {
        File f = File::create(manifest);  // torn to nothing
    }
    EXPECT_THROW(Persistence p(pc), IoError);
    {
        File f = File::create(manifest);
        f.write_all(pristine.data(), pristine.size());
    }
    // Nothing was lost by refusing: the intact MANIFEST still recovers
    // every key, one generation on.
    EXPECT_EQ(recover_into_map(pc, &rr), oracle);
    EXPECT_EQ(rr.generation, generation + 1);
}

// ---- checkpoint file format ------------------------------------------------
//
// Each case builds two checkpoints plus a WAL tail once, then damages a
// fresh copy of that directory per trial: recovery mutates the store
// (it drops a refused checkpoint and rewrites the MANIFEST).

void copy_dir(const std::string& from, const std::string& to) {
    std::error_code ec;
    std::filesystem::remove_all(to, ec);
    std::filesystem::copy(from, to,
                          std::filesystem::copy_options::recursive);
}

// The seal-and-CRC bar: flip one bit at EVERY byte offset of the current
// checkpoint and recovery must refuse it, fall back to the previous one
// plus a longer replay, and still equal the oracle exactly.
TEST(Checkpoint, BitFlipAtEveryByteOffsetFallsBack) {
    TempDir td;
    PersistConfig pristine;
    pristine.dir = td.sub("pristine");
    Oracle oracle = two_checkpoint_history(pristine, 8, 4);
    PersistConfig pc;
    pc.dir = td.sub("trial");
    const std::string current = pc.dir + "/ckpt-000002.ckpt";
    copy_dir(pristine.dir, pc.dir);
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(read_file(current, bytes));
    ASSERT_GT(bytes.size(), 100u);
    for (uint64_t off = 0; off != bytes.size(); ++off) {
        copy_dir(pristine.dir, pc.dir);
        flip_bit(current, off);
        RecoverResult rr;
        Oracle recovered = recover_into_map(pc, &rr);
        EXPECT_TRUE(rr.used_fallback) << "undetected flip at " << off;
        EXPECT_EQ(rr.corrupt_checkpoints, 1u) << "offset " << off;
        ASSERT_EQ(recovered, oracle) << "offset " << off;
    }
}

// A checkpoint cut at any length (a torn file, or an unsealed one) or
// carrying anything after its seal is refused.
TEST(Checkpoint, TruncationAtEveryLengthIsRefused) {
    TempDir td;
    PersistConfig pristine;
    pristine.dir = td.sub("pristine");
    Oracle oracle = two_checkpoint_history(pristine, 8, 4);
    PersistConfig pc;
    pc.dir = td.sub("trial");
    const std::string current = pc.dir + "/ckpt-000002.ckpt";
    copy_dir(pristine.dir, pc.dir);
    std::vector<uint8_t> full;
    ASSERT_TRUE(read_file(current, full));

    auto refused = [&](const std::vector<uint8_t>& image, size_t n) {
        copy_dir(pristine.dir, pc.dir);
        {
            File f = File::create(current);
            f.write_all(image.data(), n);
        }
        RecoverResult rr;
        Oracle recovered = recover_into_map(pc, &rr);
        EXPECT_TRUE(rr.used_fallback) << "length " << n;
        EXPECT_EQ(rr.corrupt_checkpoints, 1u) << "length " << n;
        EXPECT_EQ(recovered, oracle) << "length " << n;
    };
    for (size_t cut = 0; cut != full.size(); ++cut)
        refused(full, cut);

    // The seal must end the file: a well-formed put after it, or one
    // stray byte, is refused too.
    net::Buffer extra, scratch;
    append_entry(extra, scratch, Record::kPut, "key|0", "after-seal");
    std::vector<uint8_t> longer = full;
    longer.insert(longer.end(), extra.data(), extra.data() + extra.size());
    refused(longer, longer.size());
    longer.resize(full.size() + 1);
    refused(longer, longer.size());

    // The intact file is accepted as is.
    copy_dir(pristine.dir, pc.dir);
    RecoverResult rr;
    EXPECT_EQ(recover_into_map(pc, &rr), oracle);
    EXPECT_FALSE(rr.used_fallback);
    EXPECT_EQ(rr.checkpoint_entries, 8u);
}

// A crash between writing a checkpoint and renaming it into place
// leaves a tmp file. Only the rename publishes: even a complete, sealed
// image under the tmp name is never read, and the next checkpoint
// overwrites it.
TEST(Checkpoint, UnpublishedTmpIsIgnored) {
    TempDir td;
    PersistConfig pc;
    pc.dir = td.sub("p");
    Oracle oracle = two_checkpoint_history(pc, 8, 4);
    {
        net::Buffer image, scratch;
        append_entry(image, scratch, Record::kPut, "key|0", "unpublished");
        append_entry(image, scratch, Record::kSeal, "\x01", "");
        File f = File::create(pc.dir + "/ckpt-000003.ckpt.tmp");
        f.write_all(image.data(), image.size());
    }
    RecoverResult rr;
    EXPECT_EQ(recover_into_map(pc, &rr), oracle);
    EXPECT_FALSE(rr.used_fallback);
    EXPECT_EQ(rr.corrupt_checkpoints, 0u);
    {
        Persistence p(pc);
        recover_inplace(p);
        ASSERT_TRUE(p.checkpoint([&oracle](FnRef<void(Str, Str)> emit) {
            for (const auto& kv : oracle)
                emit(Str(kv.first), Str(kv.second));
        }));
    }
    EXPECT_FALSE(file_exists(pc.dir + "/ckpt-000003.ckpt.tmp"));
    EXPECT_EQ(recover_into_map(pc, &rr), oracle);
    EXPECT_EQ(rr.checkpoint_entries, oracle.size());
}

// ---- tier integration -------------------------------------------------------

constexpr const char* kTimelineJoin =
    "t|<u>|<ts:10>|<p> = check s|<u>|<p> copy p|<p>|<ts:10>";

std::string padded(int n) {
    std::string digits = std::to_string(n);
    return std::string(10 - digits.size(), '0') + digits;
}

distrib::Cluster::Config cluster_config(const std::string& dir) {
    distrib::Cluster::Config cfg;
    cfg.base_servers = 2;
    cfg.compute_servers = 2;
    cfg.base_tables = {"p|", "s|"};
    cfg.joins = kTimelineJoin;
    cfg.persist.dir = dir;
    return cfg;
}

TEST(DistribPersist, WarmRestartServesAckedWritesFromDisk) {
    TempDir td;
    distrib::Cluster cluster(cluster_config(td.sub("cluster")));
    ASSERT_TRUE(cluster.put("s|u1|u2", "1"));
    for (int i = 0; i != 20; ++i)
        ASSERT_TRUE(cluster.put("p|u2|" + padded(i),
                                "post" + std::to_string(i)));
    cluster.settle();

    int c = cluster.compute_index_for("u1");
    distrib::ScanResult before;
    ASSERT_TRUE(cluster.client().scan(cluster.compute(c).id(), "t|u1|",
                                      "t|u1}", &before));
    ASSERT_EQ(before.size(), 20u);

    uint64_t gen0 = cluster.base(0).generation();
    uint64_t gen1 = cluster.base(1).generation();
    // Power-fail both bases, then bring them back from disk.
    cluster.crash_base(0);
    cluster.crash_base(1);
    cluster.restart_base(0);
    cluster.restart_base(1);
    // The durable generation advanced — that is what forces the compute
    // tier to notice and re-subscribe.
    EXPECT_GT(cluster.base(0).generation(), gen0);
    EXPECT_GT(cluster.base(1).generation(), gen1);
    cluster.tick();
    cluster.settle();

    distrib::ScanResult after;
    ASSERT_TRUE(cluster.client().scan(cluster.compute(c).id(), "t|u1|",
                                      "t|u1}", &after));
    EXPECT_EQ(after, before);  // every acked write survived power loss
}

TEST(DistribPersist, CheckpointTruncatesWalAndRestartStillRecovers) {
    TempDir td;
    auto cfg = cluster_config(td.sub("cluster"));
    {
        distrib::Cluster cluster(cfg);
        for (int i = 0; i != 30; ++i)
            ASSERT_TRUE(cluster.put("p|u9|" + padded(i),
                                    "v" + std::to_string(i)));
        cluster.settle();
        for (int b = 0; b != cfg.base_servers; ++b)
            EXPECT_TRUE(cluster.checkpoint_base(b));
        for (int i = 30; i != 40; ++i)
            ASSERT_TRUE(cluster.put("p|u9|" + padded(i),
                                    "v" + std::to_string(i)));
        cluster.settle();
    }
    // A brand-new cluster over the same directory: checkpoint + WAL
    // replay must reproduce all 40 acked puts.
    distrib::Cluster cluster(cfg);
    size_t total = 0;
    for (int b = 0; b != cfg.base_servers; ++b) {
        EXPECT_GT(cluster.base(b).last_recovery().generation, 1u);
        const_cast<Server&>(cluster.base(b).engine())
            .scan("p|", "p}",
                  [&total](const std::string&, const ValuePtr&) {
                      ++total;
                  });
    }
    EXPECT_EQ(total, 40u);
}

void settle_shards(shard::ShardedServer& ss) {
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

TEST(ShardPersist, RestartRecoversOwnedBaseKeysAndRebuildsSinks) {
    TempDir td;
    shard::ShardConfig cfg;
    cfg.shards = 2;
    cfg.joins = kTimelineJoin;
    cfg.persist.dir = td.sub("shards");

    Items expected;
    {
        shard::ShardedServer ss(cfg);
        ss.load("s|u1|u2", "1");
        shard::ShardClient& client = ss.make_client();
        for (int i = 0; i != 16; ++i)
            client.submit_put("p|u2|" + padded(i),
                              "post" + std::to_string(i));
        client.flush();
        settle_shards(ss);
        for (int s = 0; s != ss.shards(); ++s)
            ss.server(s).scan_stored(
                Str(), Str(),
                [&expected](const std::string& k, const Entry& e) {
                    expected.emplace_back(k, e.value());
                });
        // Destructor is an orderly shutdown: the WAL tails flush.
    }
    ASSERT_EQ(expected.size(), 17u);  // 1 sub + 16 posts, no sinks yet

    shard::ShardedServer ss(cfg);
    Items recovered;
    for (int s = 0; s != ss.shards(); ++s) {
        ASSERT_NE(ss.last_recovery(s), nullptr);
        EXPECT_GE(ss.last_recovery(s)->generation, 2u);
        ss.server(s).scan_stored(
            Str(), Str(),
            [&recovered](const std::string& k, const Entry& e) {
                recovered.emplace_back(k, e.value());
            });
    }
    std::sort(expected.begin(), expected.end());
    std::sort(recovered.begin(), recovered.end());
    EXPECT_EQ(recovered, expected);

    // Derived data re-materializes on demand from the recovered bases.
    shard::ShardClient& client = ss.make_client();
    client.submit_scan("t|u1|", "t|u1}");
    client.flush();
    settle_shards(ss);
    size_t timeline = 0;
    shard::Frame f;
    while (client.poll_reply(f)) {
        net::Message m;
        while (net::decode_message(f.buf, m))
            timeline += m.items.size();
    }
    EXPECT_EQ(timeline, 16u);

    // Checkpointing the recovered shards snapshots owned base keys
    // (replicas and sinks excluded) and truncates their logs.
    ASSERT_TRUE(ss.checkpoint_shard(0));
    ASSERT_TRUE(ss.checkpoint_shard(1));
}

// A client put under a sink prefix is derived-table data: checkpoints
// exclude it, so the WAL must too, or the key would be durable only
// until the first checkpoint truncated the log and then silently
// vanish. With the ingest filter it is uniformly volatile — gone after
// restart whether or not a checkpoint intervened — while base keys
// stay durable.
TEST(ShardPersist, SinkPrefixClientPutsAreUniformlyVolatile) {
    for (bool with_checkpoint : {false, true}) {
        TempDir td;
        shard::ShardConfig cfg;
        cfg.shards = 2;
        cfg.joins = kTimelineJoin;
        cfg.persist.dir = td.sub("shards");
            {
            shard::ShardedServer ss(cfg);
            shard::ShardClient& client = ss.make_client();
            client.submit_put("p|u1|" + padded(1), "base");
            client.submit_put("t|u9|" + padded(1) + "|p1", "sneaky");
            client.flush();
            settle_shards(ss);
            if (with_checkpoint) {
                for (int s = 0; s != ss.shards(); ++s)
                    ASSERT_TRUE(ss.checkpoint_shard(s));
            }
        }
        shard::ShardedServer ss(cfg);
        bool base_back = false, sink_back = false;
        for (int s = 0; s != ss.shards(); ++s)
            ss.server(s).scan_stored(
                Str(), Str(),
                [&](const std::string& k, const Entry&) {
                    if (starts_with(k, "p|"))
                        base_back = true;
                    if (starts_with(k, "t|"))
                        sink_back = true;
                });
        EXPECT_TRUE(base_back)
            << "with_checkpoint=" << with_checkpoint;
        EXPECT_FALSE(sink_back)
            << "with_checkpoint=" << with_checkpoint;
    }
}

}  // namespace
}  // namespace persist
}  // namespace pequod
