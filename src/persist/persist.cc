#include "persist/persist.hh"

#include <cstdio>
#include <utility>
#include <vector>

#include "persist/crc32c.hh"

namespace pequod {
namespace persist {

namespace {

WalConfig make_wal_config(const PersistConfig& config) {
    WalConfig wc;
    wc.dir = config.dir + "/wal";
    wc.segment_bytes = config.wal_segment_bytes;
    wc.flush_interval_ops = config.wal_flush_interval_ops;
    wc.fsync_data = config.wal_fsync;
    return wc;
}

bool read_varint_at(const std::vector<uint8_t>& b, size_t& pos,
                    uint64_t& out) {
    uint64_t v = 0;
    int shift = 0;
    while (pos < b.size() && shift < 64) {
        uint8_t c = b[pos++];
        v |= static_cast<uint64_t>(c & 0x7f) << shift;
        if (!(c & 0x80)) {
            out = v;
            return true;
        }
        shift += 7;
    }
    return false;
}

}  // namespace

Persistence::Persistence(const PersistConfig& config)
    : config_(config), wal_((make_dir(config.dir), make_wal_config(config))) {
    load_manifest(manifest_);
}

std::string Persistence::ckpt_path(uint64_t id) const {
    char name[32];
    std::snprintf(name, sizeof name, "ckpt-%06llu.blk",
                  static_cast<unsigned long long>(id));
    return config_.dir + "/" + name;
}

bool Persistence::load_manifest(Manifest& m) const {
    std::vector<uint8_t> bytes;
    if (!read_file(config_.dir + "/MANIFEST", bytes) || bytes.size() < 4)
        return false;
    uint32_t want = static_cast<uint32_t>(bytes[0])
        | static_cast<uint32_t>(bytes[1]) << 8
        | static_cast<uint32_t>(bytes[2]) << 16
        | static_cast<uint32_t>(bytes[3]) << 24;
    if (crc32c(bytes.data() + 4, bytes.size() - 4) != want)
        return false;
    size_t pos = 4;
    Manifest parsed;
    if (!read_varint_at(bytes, pos, parsed.ckpt_id)
        || !read_varint_at(bytes, pos, parsed.wal_start)
        || !read_varint_at(bytes, pos, parsed.prev_id)
        || !read_varint_at(bytes, pos, parsed.prev_start)
        || !read_varint_at(bytes, pos, parsed.generation))
        return false;
    m = parsed;
    return true;
}

void Persistence::store_manifest(const Manifest& m) const {
    net::Buffer payload;
    payload.write_varint(m.ckpt_id);
    payload.write_varint(m.wal_start);
    payload.write_varint(m.prev_id);
    payload.write_varint(m.prev_start);
    payload.write_varint(m.generation);
    uint32_t crc = crc32c(payload.data(), payload.size());
    uint8_t crc_bytes[4] = {
        static_cast<uint8_t>(crc), static_cast<uint8_t>(crc >> 8),
        static_cast<uint8_t>(crc >> 16), static_cast<uint8_t>(crc >> 24)};
    // Atomic replace: the manifest either names the old checkpoint or
    // the new one, never a half-written record.
    const std::string tmp = config_.dir + "/MANIFEST.tmp";
    {
        File f = File::create(tmp);
        f.write_all(crc_bytes, sizeof crc_bytes);
        f.write_all(payload.data(), payload.size());
        f.fsync();
    }
    rename_file(tmp, config_.dir + "/MANIFEST");
    sync_dir(config_.dir);
}

bool Persistence::checkpoint(
        FnRef<void(FnRef<void(Str, Str)> emit)> enumerate) {
    // Cut the log first: records logged before this point are covered by
    // the snapshot about to be taken; later records land in `cut` and up
    // and survive the truncation below.
    wal_.flush();
    uint64_t cut = wal_.rotate();

    uint64_t id = manifest_.ckpt_id + 1;
    const std::string path = ckpt_path(id);
    {
        BlockWriter writer(path, config_.block_size);
        auto emit = [&](Str key, Str value) {
            writer.add(key, value);
        };
        enumerate(FnRef<void(Str, Str)>(emit));
        writer.finish();
    }

    // Read-back verification: only a checkpoint whose every block passes
    // its CRC may become current (and authorize deleting history).
    {
        BlockStoreConfig bc;
        bc.path = path;
        bc.block_size = config_.block_size;
        bc.cache_budget = config_.cache_budget;
        BlockStore store(bc);
        auto sink = [](Str, Str) {};
        if (!store.ok() || !store.scan(FnRef<void(Str, Str)>(sink))) {
            remove_file(path);
            return false;
        }
    }

    uint64_t dropped = manifest_.prev_id;  // falls off the two-deep window
    Manifest next = manifest_;
    next.prev_id = manifest_.ckpt_id;
    next.prev_start = manifest_.wal_start;
    next.ckpt_id = id;
    next.wal_start = cut;
    store_manifest(next);
    manifest_ = next;

    // With the manifest durable, history older than the *previous*
    // checkpoint is unreachable by any recovery path: drop it.
    if (dropped != 0)
        remove_file(ckpt_path(dropped));
    wal_.truncate_before(manifest_.prev_id != 0 ? manifest_.prev_start
                                                : manifest_.wal_start);
    return true;
}

bool Persistence::load_checkpoint(
        uint64_t id,
        std::vector<std::pair<std::string, std::string>>& pairs,
        RecoverResult& result) {
    if (id == 0)
        return false;
    BlockStoreConfig bc;
    bc.path = ckpt_path(id);
    bc.block_size = config_.block_size;
    bc.cache_budget = config_.cache_budget;
    BlockStore store(bc);
    if (!store.ok()) {
        if (file_exists(bc.path))
            ++result.corrupt_blocks;
        return false;
    }
    pairs.clear();
    // Recovery-time staging, not the write path: the copies let a
    // checkpoint that fails mid-scan be discarded without side effects.
    auto stage = [&](Str key, Str value) {
        // pqcheck: allow(hot-string)
        pairs.emplace_back(std::string(key.data(), key.size()),
                           // pqcheck: allow(hot-string)
                           std::string(value.data(), value.size()));
    };
    bool complete = store.scan(FnRef<void(Str, Str)>(stage));
    if (!complete) {
        result.corrupt_blocks += store.cache_stats().corrupt_disk;
        pairs.clear();
        return false;
    }
    return true;
}

RecoverResult Persistence::recover(FnRef<void(Str, Str)> put,
                                   FnRef<void(Str, Str)> erase) {
    RecoverResult result;

    // Pick the newest checkpoint that verifies end to end. Pairs are
    // staged, not applied, so a checkpoint that turns out corrupt at
    // block 40 of 50 leaves no partial state behind.
    std::vector<std::pair<std::string, std::string>> staged;
    uint64_t wal_from = 0;
    uint64_t used_ckpt = 0;
    if (load_checkpoint(manifest_.ckpt_id, staged, result)) {
        used_ckpt = manifest_.ckpt_id;
        wal_from = manifest_.wal_start;
    } else if (load_checkpoint(manifest_.prev_id, staged, result)) {
        used_ckpt = manifest_.prev_id;
        wal_from = manifest_.prev_start;
        result.used_fallback = true;
    } else if (manifest_.ckpt_id != 0) {
        // Both checkpoints unusable: replay the entire surviving log.
        result.used_fallback = true;
        wal_from = 0;
    }

    for (const auto& kv : staged)
        put(Str(kv.first), Str(kv.second));
    result.checkpoint_entries = staged.size();

    auto apply = [&](const WalRecord& rec) {
        if (rec.op == WalRecord::kPut)
            put(rec.key, rec.value);
        else
            erase(rec.key, rec.value);
    };
    ReplayResult rr = Wal::replay(config_.dir + "/wal", wal_from,
                                  FnRef<void(const WalRecord&)>(apply));
    result.wal_records = rr.records;
    result.wal_tail_clean = rr.clean;

    // If the current checkpoint was passed over, adopt the one actually
    // used and delete the corrupt file, so the next checkpoint() chains
    // prev correctly and nothing ever falls back onto known-bad blocks.
    Manifest next = manifest_;
    if (result.used_fallback) {
        if (manifest_.ckpt_id != used_ckpt && manifest_.ckpt_id != 0)
            remove_file(ckpt_path(manifest_.ckpt_id));
        next.ckpt_id = used_ckpt;
        next.wal_start = wal_from;
        next.prev_id = 0;
        next.prev_start = 0;
    }
    // Durable restart counter: persisted before serving, so every
    // incarnation a subscriber can observe has a distinct generation.
    next.generation = manifest_.generation + 1;
    store_manifest(next);
    manifest_ = next;
    result.generation = manifest_.generation;
    return result;
}

}  // namespace persist
}  // namespace pequod
