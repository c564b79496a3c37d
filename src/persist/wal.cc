#include "persist/wal.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

namespace pequod {
namespace persist {

std::string Wal::segment_path(const std::string& dir, uint64_t segment) {
    char name[32];
    std::snprintf(name, sizeof name, "seg-%06llu.wal",
                  static_cast<unsigned long long>(segment));
    return dir + "/" + name;
}

std::vector<uint64_t> Wal::segments_in(const std::string& dir) {
    std::vector<uint64_t> out;
    std::error_code ec;
    for (const auto& entry
         : std::filesystem::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        unsigned long long idx = 0;
        if (std::sscanf(name.c_str(), "seg-%llu.wal", &idx) == 1)
            out.push_back(idx);
    }
    std::sort(out.begin(), out.end());
    return out;
}

Wal::Wal(const WalConfig& config) : config_(config) {
    if (config_.dir.empty())
        throw std::invalid_argument("Wal needs a directory");
    if (config_.flush_interval_ops == 0)
        config_.flush_interval_ops = 1;
    make_dir(config_.dir);
    // Always start a fresh segment after the highest existing one: the
    // replayed tail of a previous incarnation stays byte-identical on
    // disk, and this process's records follow in strictly later
    // segments.
    std::vector<uint64_t> existing = segments_in(config_.dir);
    open_segment(existing.empty() ? 1 : existing.back() + 1);
}

Wal::~Wal() {
    if (!crashed_ && buffered_ops_ != 0) {
        try {
            flush();
        } catch (...) {
            // Destructors must not throw (std::terminate). The flush
            // here is best-effort shutdown hygiene; callers that need
            // guaranteed durability call flush() before destruction and
            // observe the IoError there.
        }
    }
}

void Wal::open_segment(uint64_t segment) {
    file_ = File::append(segment_path(config_.dir, segment));
    segment_ = segment;
    segment_size_ = file_.size();
    ++stats_.segments_created;
    sync_dir(config_.dir);
}

void Wal::append_put(Str key, Str value) {
    append_record(Record::kPut, key, value);
}

void Wal::append_erase(Str lo, Str hi) {
    append_record(Record::kErase, lo, hi);
}

void Wal::append_record(Record::Op op, Str a, Str b) {
    append_entry(batch_, scratch_, op, a, b);
    ++stats_.appended_ops;
    if (++buffered_ops_ >= config_.flush_interval_ops)
        flush();
}

void Wal::flush() {
    if (buffered_ops_ == 0)
        return;
    file_.write_all(batch_.data(), batch_.size());
    segment_size_ += batch_.size();
    stats_.bytes_written += batch_.size();
    if (config_.fsync_data) {
        file_.fsync();
        ++stats_.fsyncs;
    }
    ++stats_.flushes;
    stats_.durable_ops = stats_.appended_ops;
    buffered_ops_ = 0;
    batch_.clear();
    // Rotation only at flush boundaries: a record never spans segments.
    if (segment_size_ >= kWalSegmentBytes)
        open_segment(segment_ + 1);
}

uint64_t Wal::rotate() {
    flush();
    if (segment_size_ != 0)
        open_segment(segment_ + 1);
    return segment_;
}

void Wal::truncate_before(uint64_t segment) {
    for (uint64_t idx : segments_in(config_.dir))
        if (idx < segment && idx != segment_)
            remove_file(segment_path(config_.dir, idx));
    sync_dir(config_.dir);
}

void Wal::simulate_crash() {
    batch_.clear();
    buffered_ops_ = 0;
    crashed_ = true;
    file_.close();
}

ReplayResult Wal::replay(const std::string& dir, uint64_t from_segment,
                         FnRef<void(const Record&)> handler) {
    ReplayResult result;
    std::vector<uint8_t> bytes;
    std::vector<uint64_t> segs = segments_in(dir);
    for (uint64_t seg : segs) {
        if (seg < from_segment || !read_file(segment_path(dir, seg), bytes))
            continue;
        ++result.segments;
        RecordReader reader(bytes);
        Record rec;
        while (reader.next(rec)) {
            if (rec.op == Record::kSeal) {
                reader.refuse("malformed record");  // not a log entry
                break;
            }
            handler(rec);
            ++result.records;
        }
        if (!reader.stop_reason())
            continue;
        // Diagnostics name the first stop; later stops in other
        // segments only count toward skipped_tails below.
        if (result.clean) {
            result.stop_reason = reader.stop_reason();
            result.stopped_segment = seg;
            result.stopped_offset = reader.offset();
        }
        result.clean = false;
        // A tear sits only at the durable frontier of the incarnation
        // that wrote the segment, and every incarnation appends to a
        // strictly later segment — so an unclean tail in a non-final
        // segment is a frozen artifact of an older crash, not the
        // current frontier. Skip the remainder of this segment and keep
        // replaying: acknowledged, fsync'd records in later segments are
        // still durable. Only an unclean tail in the last segment ends
        // replay.
        if (seg == segs.back())
            break;
        ++result.skipped_tails;
    }
    return result;
}

}  // namespace persist
}  // namespace pequod
