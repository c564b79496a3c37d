#include "persist/persist.hh"

#include <cstdio>
#include <vector>

#include "persist/record.hh"

namespace pequod {
namespace persist {

namespace {

constexpr size_t kCheckpointChunk = 64 * 1024;  // bytes per write(2)

WalConfig make_wal_config(const PersistConfig& config) {
    WalConfig wc;
    wc.dir = config.dir + "/wal";
    wc.flush_interval_ops = config.wal_flush_interval_ops;
    wc.fsync_data = config.wal_fsync;
    return wc;
}

// Atomic replace: make the written tmp file durable, then rename it over
// `path` and fsync the directory, so `path` names either its old bytes
// or every new one, never a prefix.
void publish(File& f, const std::string& tmp, const std::string& path,
             const std::string& dir) {
    f.fsync();
    f.close();
    rename_file(tmp, path);
    sync_dir(dir);
}

// Walk a checkpoint image: put records, then a seal whose entry count
// matches, ending exactly at end of file; anything else (a torn or
// corrupt record, a missing or early seal, a wrong count) refuses it.
// `put` sees each pair as it is read, so a caller that must not
// half-apply a checkpoint verifies it first with a no-op.
bool walk_checkpoint(const std::vector<uint8_t>& bytes,
                     FnRef<void(Str, Str)> put) {
    RecordReader reader(bytes);
    Record rec;
    uint64_t entries = 0;
    while (reader.next(rec)) {
        if (rec.op == Record::kSeal) {
            size_t pos = 0;
            uint64_t sealed = 0;
            return read_varint(
                       reinterpret_cast<const uint8_t*>(rec.key.data()),
                       rec.key.size(), pos, sealed)
                && pos == rec.key.size() && sealed == entries
                && reader.at_end();
        }
        if (rec.op != Record::kPut)
            return false;
        put(rec.key, rec.value);
        ++entries;
    }
    return false;  // torn, corrupt, or never sealed
}

}  // namespace

Persistence::Persistence(const PersistConfig& config)
    : config_(config),
      manifest_(load_manifest(config.dir)),
      wal_((make_dir(config.dir), make_wal_config(config))) {}

std::string Persistence::ckpt_path(uint64_t id) const {
    char name[32];
    std::snprintf(name, sizeof name, "ckpt-%06llu.ckpt",
                  static_cast<unsigned long long>(id));
    return config_.dir + "/" + name;
}

Persistence::Manifest Persistence::load_manifest(const std::string& dir) {
    Manifest m;
    const std::string path = dir + "/MANIFEST";
    std::vector<uint8_t> bytes;
    if (!read_file(path, bytes))
        return m;  // fresh start
    // Present but unreadable is not a fresh start: the checkpoints and
    // log cut it names would be silently dropped. Fail closed.
    RecordReader reader(bytes);
    const uint8_t* p = nullptr;
    size_t n = 0, pos = 0;
    if (!reader.next_frame(p, n) || !reader.at_end()
        || !read_varint(p, n, pos, m.ckpt_id)
        || !read_varint(p, n, pos, m.wal_start)
        || !read_varint(p, n, pos, m.prev_id)
        || !read_varint(p, n, pos, m.prev_start)
        || !read_varint(p, n, pos, m.generation) || pos != n)
        throw IoError("corrupt " + path, EBADMSG);
    return m;
}

void Persistence::store_manifest(const Manifest& m) const {
    net::Buffer payload, frame;
    payload.write_varint(m.ckpt_id);
    payload.write_varint(m.wal_start);
    payload.write_varint(m.prev_id);
    payload.write_varint(m.prev_start);
    payload.write_varint(m.generation);
    append_frame(frame, payload.data(), payload.size());
    const std::string tmp = config_.dir + "/MANIFEST.tmp";
    File f = File::create(tmp);
    f.write_all(frame.data(), frame.size());
    publish(f, tmp, config_.dir + "/MANIFEST", config_.dir);
}

bool Persistence::checkpoint(
        FnRef<void(FnRef<void(Str, Str)> emit)> enumerate) {
    // Cut the log first: records logged before this point are covered by
    // the snapshot about to be taken; later records land in `cut` and up
    // and survive the truncation below.
    wal_.flush();
    uint64_t cut = wal_.rotate();

    // Until the rename, a crash leaves only the tmp file, which no
    // recovery reads.
    uint64_t id = manifest_.ckpt_id + 1;
    const std::string path = ckpt_path(id);
    const std::string tmp = path + ".tmp";
    {
        File f = File::create(tmp);
        net::Buffer out, scratch;
        uint64_t entries = 0;
        auto emit = [&](Str key, Str value) {
            append_entry(out, scratch, Record::kPut, key, value);
            ++entries;
            if (out.size() >= kCheckpointChunk) {
                f.write_all(out.data(), out.size());
                out.clear();
            }
        };
        enumerate(FnRef<void(Str, Str)>(emit));
        net::Buffer count;
        count.write_varint(entries);
        append_entry(out, scratch, Record::kSeal,
                     Str(reinterpret_cast<const char*>(count.data()),
                         count.size()),
                     Str());
        f.write_all(out.data(), out.size());
        publish(f, tmp, path, config_.dir);
    }

    // Read-back verification through the recovery loader: only a
    // checkpoint that verifies may become current (and authorize
    // deleting history).
    std::vector<uint8_t> bytes;
    RecoverResult ignored;
    if (!load_checkpoint(id, bytes, ignored)) {
        remove_file(path);
        return false;
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

bool Persistence::load_checkpoint(uint64_t id, std::vector<uint8_t>& bytes,
                                  RecoverResult& result) const {
    if (id == 0 || !read_file(ckpt_path(id), bytes))
        return false;
    auto skip = [](Str, Str) {};
    if (walk_checkpoint(bytes, FnRef<void(Str, Str)>(skip)))
        return true;
    ++result.corrupt_checkpoints;
    return false;
}

RecoverResult Persistence::recover(FnRef<void(Str, Str)> put,
                                   FnRef<void(Str, Str)> erase) {
    RecoverResult result;

    // Pick the newest checkpoint that verifies end to end. Verification
    // finishes before anything is applied, so a checkpoint that turns
    // out corrupt at its last record leaves no partial state behind.
    std::vector<uint8_t> ckpt;
    uint64_t wal_from = 0;
    uint64_t used_ckpt = 0;
    if (load_checkpoint(manifest_.ckpt_id, ckpt, result)) {
        used_ckpt = manifest_.ckpt_id;
        wal_from = manifest_.wal_start;
    } else if (load_checkpoint(manifest_.prev_id, ckpt, result)) {
        used_ckpt = manifest_.prev_id;
        wal_from = manifest_.prev_start;
        result.used_fallback = true;
    } else if (manifest_.ckpt_id != 0) {
        // Both checkpoints unusable: replay the entire surviving log.
        result.used_fallback = true;
        wal_from = 0;
    }

    if (used_ckpt != 0) {
        auto apply = [&](Str key, Str value) {
            put(key, value);
            ++result.checkpoint_entries;
        };
        walk_checkpoint(ckpt, FnRef<void(Str, Str)>(apply));
    }

    auto replay = [&](const Record& rec) {
        if (rec.op == Record::kPut)
            put(rec.key, rec.value);
        else
            erase(rec.key, rec.value);
    };
    ReplayResult rr = Wal::replay(config_.dir + "/wal", wal_from,
                                  FnRef<void(const Record&)>(replay));
    result.wal_records = rr.records;
    result.wal_tail_clean = rr.clean;

    // If the current checkpoint was passed over, adopt the one actually
    // used and delete the corrupt file, so the next checkpoint() chains
    // prev correctly and nothing ever falls back onto a known-bad file.
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
