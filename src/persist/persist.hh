// Durability orchestration (DESIGN.md §13): one Persistence instance
// owns a server's durable state — its WAL, its checkpoints, and the
// crash-safe MANIFEST that binds them. The durability contract it
// implements:
//
//  - base (client-written) data is durable once the WAL batch holding
//    it flushed; derived sinks are never persisted — they re-materialize
//    lazily from recovered base data on the next scan;
//  - checkpoint(): snapshot the base tables into a sealed checkpoint
//    file, then truncate the WAL. Two checkpoints are retained: segments
//    and the previous checkpoint are deleted only once a *newer*
//    checkpoint has verifiably replaced them, so a corrupt current
//    checkpoint can always fall back to the previous one plus a longer
//    WAL replay;
//  - recover(): load the newest checkpoint that verifies end to end
//    (falling back as needed), then replay the WAL from that
//    checkpoint's cut, stopping cleanly at a torn tail. A durable
//    restart counter (the base server's generation) is bumped and
//    persisted on every recovery, so subscribers always observe the
//    restart.
//
// All three files (WAL segments, checkpoints, MANIFEST) are runs of the
// one checksummed record format (persist/record.hh). A checkpoint is
// put records plus a final seal carrying the entry count; it counts only
// if every record verifies, the seal is last with a matching count, and
// the seal ends exactly at end of file. A missing MANIFEST is a fresh
// start; a present but corrupt one fails closed (IoError), since
// guessing would silently drop checkpointed data.
#ifndef PEQUOD_PERSIST_PERSIST_HH
#define PEQUOD_PERSIST_PERSIST_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/annotate.hh"
#include "common/fnref.hh"
#include "common/str.hh"
#include "persist/wal.hh"

namespace pequod {
namespace persist {

struct PersistConfig {
    // Root directory for this server's durable state; empty disables
    // persistence (the tiers treat an empty dir as "run in-memory").
    std::string dir;
    size_t wal_segment_bytes = 1 << 20;
    size_t wal_flush_interval_ops = 64;
    bool wal_fsync = true;

    bool enabled() const {
        return !dir.empty();
    }
};

struct RecoverResult {
    uint64_t checkpoint_entries = 0;
    uint64_t wal_records = 0;
    // Durable restart counter, already bumped for this incarnation.
    uint64_t generation = 1;
    bool used_fallback = false;  // newest checkpoint corrupt; older used
    bool wal_tail_clean = true;  // replay hit no torn/corrupt record
    uint64_t corrupt_checkpoints = 0;  // detected and refused, never served
};

class Persistence {
  public:
    // Throws IoError when the MANIFEST exists but does not verify.
    explicit Persistence(const PersistConfig& config);

    // Hot-path logging; group commit per the WAL config.
    void log_put(Str key, Str value) {
        wal_.append_put(key, value);
    }
    // Durability barrier: everything logged before flush() survives any
    // subsequent crash. Tiers call it before acknowledging (distrib) or
    // at frame boundaries (shard).
    PQ_FLUSHES_WAL void flush() {
        wal_.flush();
    }

    // Snapshot the base tables: `enumerate` receives an emit sink and
    // must feed it every durable pair. Returns false (keeping the old
    // checkpoint and the full WAL) if the freshly written checkpoint
    // fails its read-back verification.
    bool checkpoint(FnRef<void(FnRef<void(Str, Str)> emit)> enumerate);

    // Rebuild durable state through the callbacks: checkpoint pairs are
    // applied only after the whole checkpoint verified (a partially
    // corrupt snapshot is never half-applied), then WAL records in log
    // order. Call once, before any logging.
    RecoverResult recover(FnRef<void(Str, Str)> put,
                          FnRef<void(Str, Str)> erase);

    // Crash simulation for tests: drop un-flushed WAL records.
    void simulate_crash() {
        wal_.simulate_crash();
    }

    Wal& wal() {
        return wal_;
    }

  private:
    // The durable MANIFEST record: which checkpoint is current, where
    // its WAL cut is, the same for its predecessor, and the restart
    // counter. Written atomically (tmp + rename + dir fsync), CRC'd.
    struct Manifest {
        uint64_t ckpt_id = 0;      // 0 = no checkpoint yet
        uint64_t wal_start = 0;    // first segment NOT covered by it
        uint64_t prev_id = 0;
        uint64_t prev_start = 0;
        uint64_t generation = 0;   // completed recoveries
    };

    static Manifest load_manifest(const std::string& dir);
    void store_manifest(const Manifest& m) const;
    std::string ckpt_path(uint64_t id) const;
    // Read checkpoint `id` into `bytes` and verify it end to end; false
    // when it is absent or refused (counted in `result`).
    bool load_checkpoint(uint64_t id, std::vector<uint8_t>& bytes,
                         RecoverResult& result) const;

    PersistConfig config_;
    Manifest manifest_;
    Wal wal_;
};

}  // namespace persist
}  // namespace pequod

#endif
