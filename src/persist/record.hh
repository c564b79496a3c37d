// The one on-disk record format of the durability tier (DESIGN.md §13).
// WAL segments, checkpoints and the MANIFEST are all runs of frames
//
//     [varint payload_len][payload][crc32c(payload), u32 little-endian]
//
// Every payload except the MANIFEST's is an entry in the message
// layer's varint framing (net::Buffer): [varint op][len-prefixed
// key/lo][len-prefixed value/hi]. Frames are appended into a net::Buffer
// (allocation-free once the buffers are warm, §8) and read back by one
// bounded reader that verifies each frame's CRC before handing out views
// of its payload, and that names the first defect it meets instead of
// guessing past it.
#ifndef PEQUOD_PERSIST_RECORD_HH
#define PEQUOD_PERSIST_RECORD_HH

#include <cstdint>
#include <vector>

#include "common/str.hh"
#include "net/buffer.hh"

namespace pequod {
namespace persist {

// One decoded entry. Slices into the reader's bytes: valid only while
// those live — handlers that keep a record copy the bytes. The borrow
// is the point (replay streams megabytes without per-record
// allocation), so the Str members are a reviewed exception. A seal ends
// a checkpoint; its key holds the varint entry count.
struct Record {
    enum Op : uint8_t { kPut = 1, kErase = 2, kSeal = 3 };
    Op op = kPut;
    Str key;    // pqcheck: allow(str-member)
    Str value;  // pqcheck: allow(str-member)
};

// Varint over data[pos, limit) with explicit truncation signalling —
// net::Buffer's reader clamps at end-of-buffer, which is right for
// trusted frames but would mistake a torn tail for a zero. False when
// the varint runs past `limit` (or is overlong).
bool read_varint(const uint8_t* data, size_t limit, size_t& pos,
                 uint64_t& out);

// Append one frame around `n` payload bytes.
void append_frame(net::Buffer& out, const uint8_t* payload, size_t n);

// Append one entry frame; `scratch` holds the payload (the CRC input).
void append_entry(net::Buffer& out, net::Buffer& scratch, Record::Op op,
                  Str a, Str b);

// Walks the frames of one byte range in order.
class RecordReader {
  public:
    explicit RecordReader(const std::vector<uint8_t>& bytes)
        : data_(bytes.data()), size_(bytes.size()) {}

    // The next frame's CRC-verified payload. False at the end of the
    // bytes, or at the first defective frame; the reader then stays
    // stopped, stop_reason() names the defect and offset() is where the
    // defective frame starts.
    bool next_frame(const uint8_t*& payload, size_t& n);
    // The next frame decoded as an entry, every read bounded by the
    // frame: a CRC-valid but malformed payload (encoder bug, crafted
    // file) stops with "malformed record" rather than yield views past
    // its frame.
    bool next(Record& rec);
    // Stop at the frame just read, which the caller refuses.
    void refuse(const char* why) {
        stop_ = why;
    }

    // Every byte consumed and nothing refused.
    bool at_end() const {
        return pos_ == size_ && !stop_;
    }
    // Null while the bytes read so far are clean.
    const char* stop_reason() const {
        return stop_;
    }
    size_t offset() const {
        return start_;
    }

  private:
    bool stop(const char* why) {
        stop_ = why;
        return false;
    }

    const uint8_t* data_;
    size_t size_;
    size_t pos_ = 0;
    size_t start_ = 0;  // start of the last frame read
    const char* stop_ = nullptr;
};

}  // namespace persist
}  // namespace pequod

#endif
