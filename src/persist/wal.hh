// Write-ahead log with group commit (DESIGN.md §13). Put and erase
// records are entry frames of the tier's one record format
// (persist/record.hh). Appends build into a reusable batch buffer
// (allocation-free once the buffers are warm, §8); the batch reaches
// the file — and the file reaches the platter — on flush(), which
// fires automatically every flush_interval_ops appends. One fsync
// therefore covers a whole batch of operations: the group-commit
// bargain is that an acknowledgment is durable only once the batch
// holding it flushed, which the tiers enforce by flushing before acking
// (distrib) or at frame boundaries (shard).
//
// The log is a sequence of segment files (seg-<n>.wal). Rotation happens
// only at flush boundaries, so a record never spans segments, and a
// checkpoint can name a segment index as its cut: everything before it
// is summarized by the checkpoint and deletable.
//
// Replay walks segments in order. Within a segment it stops at the
// first record that is torn (length or body truncated by a crash) or
// corrupt (CRC mismatch, malformed payload): everything before the bad
// record is applied, nothing after it in that segment — a torn tail
// must not shadow-apply records whose durability was never
// acknowledged. A tear can only sit at the durable frontier of the
// incarnation that wrote the segment, and every incarnation opens a
// strictly later segment, so an unclean tail in a non-final segment is
// a frozen artifact of an older crash: replay skips past it and
// continues with the next segment, where acknowledged, fsync'd records
// of later incarnations live. Only an unclean tail in the final
// segment — the current durable frontier — ends replay.
#ifndef PEQUOD_PERSIST_WAL_HH
#define PEQUOD_PERSIST_WAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/annotate.hh"
#include "common/fnref.hh"
#include "common/str.hh"
#include "net/buffer.hh"
#include "persist/io.hh"
#include "persist/record.hh"

namespace pequod {
namespace persist {

struct WalConfig {
    std::string dir;
    // Rotate to a new segment once the current one exceeds this.
    size_t segment_bytes = 1 << 20;
    // Group commit: flush (write + fsync) after this many appended ops.
    size_t flush_interval_ops = 64;
    // When false, flush() writes but never fsyncs — the fig_recovery
    // ablation's "trust the page cache" mode, not a durability mode.
    bool fsync_data = true;
};

struct WalStats {
    uint64_t appended_ops = 0;
    uint64_t durable_ops = 0;  // ops covered by a completed flush
    uint64_t flushes = 0;
    uint64_t fsyncs = 0;
    uint64_t bytes_written = 0;
    uint64_t segments_created = 0;
};

struct ReplayResult {
    uint64_t records = 0;
    uint64_t segments = 0;
    // False when replay hit a torn or corrupt record anywhere;
    // stop_reason/stopped_segment/stopped_offset describe the first one.
    bool clean = true;
    std::string stop_reason;
    uint64_t stopped_segment = 0;
    uint64_t stopped_offset = 0;
    // Non-final segments whose unclean tail was skipped so the durable
    // records in later segments still replayed.
    uint64_t skipped_tails = 0;
};

class Wal {
  public:
    explicit Wal(const WalConfig& config);
    Wal(const Wal&) = delete;
    Wal& operator=(const Wal&) = delete;
    // Flushes buffered records: process exit is an orderly shutdown,
    // not a crash. Crash tests drop the buffer first via simulate_crash.
    // I/O errors from this best-effort flush are swallowed (a destructor
    // must not throw); callers that need guaranteed durability call
    // flush() explicitly and observe the IoError there.
    ~Wal();

    // Hot path: encode into the warm batch buffer; flush when the group
    // commit interval fills.
    void append_put(Str key, Str value);
    void append_erase(Str lo, Str hi);

    // Group-commit barrier: write the batch, fsync (per config), and
    // advance durable_ops. After flush() returns, every append before it
    // survives any crash.
    PQ_FLUSHES_WAL void flush();

    // Force rotation to a fresh segment (flushing first) and return its
    // index — the checkpoint cut: records at or after this segment are
    // not covered by the checkpoint being taken.
    uint64_t rotate();

    // Delete every segment with index < `segment`; the checkpoint that
    // made them redundant has been made durable by the caller.
    void truncate_before(uint64_t segment);

    // Crash simulation for the kill-loop tests: discard buffered
    // (un-flushed) records and close the file, exactly what power loss
    // does to a batch that never reached fsync.
    void simulate_crash();

    size_t buffered_ops() const {
        return buffered_ops_;
    }
    const WalStats& stats() const {
        return stats_;
    }

    // Replay all records in `dir` from segment `from_segment` upward.
    // Each record is a put or an erase, valid only during the handler
    // call.
    static ReplayResult replay(const std::string& dir,
                               uint64_t from_segment,
                               FnRef<void(const Record&)> handler);

    // Segment indexes present in `dir`, sorted ascending.
    static std::vector<uint64_t> segments_in(const std::string& dir);

    static std::string segment_path(const std::string& dir,
                                    uint64_t segment);

  private:
    void append_record(Record::Op op, Str a, Str b);
    void open_segment(uint64_t segment);

    WalConfig config_;
    File file_;
    uint64_t segment_ = 0;
    uint64_t segment_size_ = 0;
    size_t buffered_ops_ = 0;
    net::Buffer scratch_;  // one record's payload (CRC input)
    net::Buffer batch_;    // framed records awaiting flush
    WalStats stats_;
    bool crashed_ = false;
};

}  // namespace persist
}  // namespace pequod

#endif
